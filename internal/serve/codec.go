package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The POST /v1/build codec. A body is read once into a pooled buffer
// and parsed in one pass when it is in the canonical form (see
// parseCanonical); any other body goes to encoding/json with
// DisallowUnknownFields, which reads the same bytes followed by the
// rest of the capped body, so the accepted language, the decoded
// values and every 400 text stay encoding/json's. The 200 body is
// appended into a pooled buffer by appendBuildResponse, byte-identical
// to json.NewEncoder(w).Encode. DESIGN.md §11 has the contract.

// maxPooledBuf is the largest buffer returned to bufPool: a rare huge
// body or response is left to the collector rather than pinned.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// decodeRequest decodes one /v1/build body from r into req, reading
// through buf. It never asks r for more than limit bytes in total, so
// a capped reader (http.MaxBytesReader) trips its limit only when
// encoding/json, reading the same stream, would have.
func decodeRequest(r io.Reader, limit int64, buf *[]byte, req *BuildRequest) (fast bool, err error) {
	b, complete := readBody(r, (*buf)[:0], limit)
	*buf = b
	if complete && parseCanonical(b, req) {
		return true, nil
	}
	*req = BuildRequest{}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(b), r))
	dec.DisallowUnknownFields()
	return false, dec.Decode(req)
}

// readBody appends r's bytes to buf until io.EOF, an error, or limit
// bytes. complete reports io.EOF: the body is whole. Otherwise r still
// holds the rest of the body or the error.
func readBody(r io.Reader, buf []byte, limit int64) (_ []byte, complete bool) {
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, cap(buf)))
		}
		room := buf[len(buf):min(int64(cap(buf)), limit)]
		n, err := r.Read(room)
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			return buf, false
		}
	}
	return buf, false
}

// parseCanonical parses body into req when it is one BuildRequest
// object in the canonical form, followed only by whitespace:
//
//   - only known keys, in exact case, each at most once;
//   - no null;
//   - ASCII strings with no escapes and no control characters;
//   - JSON-grammar numbers that strconv.ParseFloat (float fields) or
//     strconv.ParseInt (integer fields, no fraction or exponent)
//     accepts, as encoding/json converts them.
//
// On this subset encoding/json decodes the same values, so a false
// result only means "ask encoding/json"; req is then partly written.
func parseCanonical(body []byte, req *BuildRequest) bool {
	p := reqParser{b: body}
	if !p.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "timeout_ms":
			return 1 << 0, p.int64(&req.TimeoutMS)
		case "nets":
			return 1 << 1, array(&p, &req.Nets, p.net)
		}
		return 0, false
	}) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

// reqParser is parseCanonical's cursor.
type reqParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *reqParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// tok consumes c after optional whitespace.
func (p *reqParser) tok(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses an object, calling member after each key's colon.
// member parses the value and returns the key's bit (0 for an unknown
// key); a repeated bit makes the object non-canonical.
func (p *reqParser) object(member func(key []byte) (uint32, bool)) bool {
	if !p.tok('{') {
		return false
	}
	if p.tok('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.str()
		if !ok || !p.tok(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.tok('}') {
			return true
		}
		if !p.tok(',') {
			return false
		}
	}
}

// array parses an array into *s, each element by elem. An empty array
// leaves *s empty but non-nil, as encoding/json does.
func array[T any](p *reqParser, s *[]T, elem func(*T) bool) bool {
	if !p.tok('[') {
		return false
	}
	*s = make([]T, 0, 4)
	if p.tok(']') {
		return true
	}
	for {
		var zero T
		*s = append(*s, zero)
		if !elem(&(*s)[len(*s)-1]) {
			return false
		}
		if p.tok(']') {
			return true
		}
		if !p.tok(',') {
			return false
		}
	}
}

// net parses one NetRequest object.
func (p *reqParser) net(n *NetRequest) bool {
	return p.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "name":
			return 1 << 0, p.string(&n.Name)
		case "metric":
			return 1 << 1, p.string(&n.Metric)
		case "source":
			return 1 << 2, p.point(&n.Source)
		case "sinks":
			return 1 << 3, array(p, &n.Sinks, p.point)
		case "algo":
			return 1 << 4, p.string(&n.Algo)
		case "eps":
			return 1 << 5, p.float(&n.Eps)
		case "eps1":
			return 1 << 6, p.float(&n.Eps1)
		case "eps2":
			return 1 << 7, p.float(&n.Eps2)
		case "c":
			return 1 << 8, p.float(&n.C)
		case "depth":
			return 1 << 9, p.int(&n.Depth)
		case "xbudget":
			return 1 << 10, p.int(&n.XBudget)
		case "gbudget":
			return 1 << 11, p.int(&n.GBudget)
		case "eps_sweep":
			return 1 << 12, array(p, &n.EpsSweep, p.float)
		}
		return 0, false
	})
}

// point parses one Point object.
func (p *reqParser) point(pt *Point) bool {
	return p.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "x":
			return 1 << 0, p.float(&pt.X)
		case "y":
			return 1 << 1, p.float(&pt.Y)
		}
		return 0, false
	})
}

// str returns the bytes of a canonical string: ASCII, no escapes, no
// control characters.
func (p *reqParser) str() ([]byte, bool) {
	if !p.tok('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *reqParser) string(dst *string) bool {
	s, ok := p.str()
	*dst = string(s)
	return ok
}

// number returns the literal of a JSON-grammar number and whether it
// has neither a fraction nor an exponent.
func (p *reqParser) number() (lit []byte, integer bool) {
	p.ws()
	b, i := p.b, p.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		digits()
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
		integer = false
	}
	lit, p.i = b[p.i:i], i
	return lit, integer
}

func (p *reqParser) float(dst *float64) bool {
	lit, _ := p.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (p *reqParser) int64(dst *int64) bool {
	lit, integer := p.number()
	if !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (p *reqParser) int(dst *int) bool {
	var n int64
	ok := p.int64(&n)
	*dst = int(n)
	return ok && int64(*dst) == n
}

// appendBuildResponse appends resp as json.NewEncoder(w).Encode writes
// it: fields in declaration order, omitempty on edges and wires, floats
// in the 'f' format from 1e-6 up to 1e21 and in the 'e' format outside
// it, strings HTML-escaped with U+2028/U+2029 escaped and invalid UTF-8
// written as \ufffd, and a trailing newline. ok is false when a float
// is ±Inf or NaN, which encoding/json refuses to encode; b then holds a
// partial document.
func appendBuildResponse(b []byte, resp *BuildResponse) (_ []byte, ok bool) {
	e := respEncoder{b: b}
	e.b = append(e.b, `{"results":`...)
	if resp.Results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range resp.Results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.net(&resp.Results[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, "}\n"...)
	return e.b, !e.bad
}

// respEncoder is appendBuildResponse's output buffer; bad records a
// non-finite float.
type respEncoder struct {
	b   []byte
	bad bool
}

func (e *respEncoder) net(r *NetResult) {
	e.b = append(e.b, `{"name":`...)
	e.string(r.Name)
	e.b = append(e.b, `,"algo":`...)
	e.string(r.Algo)
	e.b = append(e.b, `,"kind":`...)
	e.string(r.Kind)
	e.b = append(e.b, `,"cache_hit":`...)
	e.b = strconv.AppendBool(e.b, r.CacheHit)
	e.b = append(e.b, `,"trees":`...)
	if r.Trees == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Trees {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.tree(&r.Trees[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *respEncoder) tree(t *TreeResult) {
	e.b = append(e.b, `{"eps":`...)
	e.float(t.Eps)
	e.b = append(e.b, `,"cost":`...)
	e.float(t.Cost)
	e.b = append(e.b, `,"radius":`...)
	e.float(t.Radius)
	e.b = append(e.b, `,"r":`...)
	e.float(t.R)
	e.b = append(e.b, `,"path_ratio":`...)
	e.float(t.PathRatio)
	if len(t.Edges) > 0 {
		e.b = append(e.b, `,"edges":[`...)
		for i, ed := range t.Edges {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"u":`...)
			e.b = strconv.AppendInt(e.b, int64(ed.U), 10)
			e.b = append(e.b, `,"v":`...)
			e.b = strconv.AppendInt(e.b, int64(ed.V), 10)
			e.b = append(e.b, `,"w":`...)
			e.float(ed.W)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	if len(t.Wires) > 0 {
		e.b = append(e.b, `,"wires":[`...)
		for i := range t.Wires {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			w := &t.Wires[i]
			e.b = append(e.b, `{"from":`...)
			e.point(w.From)
			e.b = append(e.b, `,"to":`...)
			e.point(w.To)
			e.b = append(e.b, `,"len":`...)
			e.float(w.Len)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *respEncoder) point(pt Point) {
	e.b = append(e.b, `{"x":`...)
	e.float(pt.X)
	e.b = append(e.b, `,"y":`...)
	e.float(pt.Y)
	e.b = append(e.b, '}')
}

// float writes f as encoding/json's float64 encoder does: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (e-07 → e-7).
func (e *respEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// string writes s quoted as encoding/json does with HTML escaping on.
func (e *respEncoder) string(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
