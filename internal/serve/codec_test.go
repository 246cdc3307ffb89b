package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// referenceDecode is the /v1/build decode before the codec: the capped
// body straight into encoding/json.
func referenceDecode(body []byte, limit int64) (BuildRequest, error) {
	var req BuildRequest
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// codecDecode runs decodeRequest as the handler does.
func codecDecode(body []byte, limit int64) (BuildRequest, bool, error) {
	var req BuildRequest
	var buf []byte
	fast, err := decodeRequest(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit), limit, &buf, &req)
	return req, fast, err
}

// sameValue compares two decoded values exactly: %#v prints floats in
// their shortest round-trip form with the sign of zero, and tells a nil
// slice from an empty one.
func sameValue(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// checkDecode requires decodeRequest to answer body as encoding/json
// does — the same error text, or the same value — and returns whether
// the canonical parser took it.
func checkDecode(t *testing.T, body []byte, limit int64) bool {
	t.Helper()
	want, wantErr := referenceDecode(body, limit)
	got, fast, err := codecDecode(body, limit)
	if fast && wantErr != nil {
		t.Fatalf("canonical parser accepted %q, encoding/json rejects it: %v", body, wantErr)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q: error %v, encoding/json says %v", body, err, wantErr)
	}
	if err == nil && !sameValue(got, want) {
		t.Fatalf("body %q (fast %v):\n got %#v\nwant %#v", body, fast, got, want)
	}
	return fast
}

// decodeCases are bodies on both sides of the canonical form. fast is
// whether the one-pass parser must take the body.
var decodeCases = []struct {
	name string
	fast bool
	body string
}{
	{"minimal", true, `{"nets":[{"algo":"bkrus","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`},
	{"every field", true, `{"timeout_ms":2000,"nets":[{"name":"clk7","metric":"l2","source":{"x":-0,"y":1.5e-7},
		"sinks":[{"x":1e22,"y":-3.25},{"y":4,"x":5}],"algo":"bkex","eps":0.2,"eps1":0.5,"eps2":1E+2,"c":0.5,
		"depth":2,"xbudget":100000,"gbudget":-7,"eps_sweep":[0.1,0.2,0.4]}]}`},
	{"whitespace", true, " \t\r\n{ \"nets\" : [ { \"algo\" : \"mst\" } ] } \n\t "},
	{"empty object", true, `{}`},
	{"empty arrays", true, `{"nets":[{"sinks":[],"eps_sweep":[]}]}`},
	{"empty objects", true, `{"nets":[{"source":{},"sinks":[{}]}]}`},
	{"empty nets", true, `{"nets":[]}`},
	{"ascii punctuation", true, `{"nets":[{"name":"a<b>&c'~` + "\x7f" + `"}]}`},
	{"negative zero int", true, `{"timeout_ms":-0}`},
	{"max int64", true, `{"timeout_ms":9223372036854775807}`},
	{"subnormal", true, `{"nets":[{"eps":4e-324}]}`},
	{"long mantissa", true, `{"nets":[{"eps":0.1000000000000000055511151231257827021181583404541015625}]}`},

	{"case-folded key", false, `{"NETS":[{"algo":"bkrus"}]}`},
	{"case-folded inner key", false, `{"nets":[{"Algo":"bkrus","SOURCE":{"X":1}}]}`},
	{"duplicate key", false, `{"nets":[],"nets":[{"algo":"mst"}]}`},
	{"duplicate inner key", false, `{"nets":[{"source":{"x":1},"source":{"y":2}}]}`},
	{"duplicate point key", false, `{"nets":[{"source":{"x":1,"x":2}}]}`},
	{"null nets", false, `{"nets":null}`},
	{"null field", false, `{"nets":[{"name":null,"eps":null}]}`},
	{"null body", false, `null`},
	{"float overflow", false, `{"nets":[{"eps":1e400}]}`},
	{"fraction in int", false, `{"timeout_ms":1.0}`},
	{"exponent in int", false, `{"nets":[{"depth":1e2}]}`},
	{"int overflow", false, `{"timeout_ms":9223372036854775808}`},
	{"escape", false, `{"nets":[{"name":"a\"b"}]}`},
	{"unicode escape", false, `{"nets":[{"algo":"bk\u0072us"}]}`},
	{"non-ascii", false, `{"nets":[{"name":"é"}]}`},
	{"invalid utf-8", false, "{\"nets\":[{\"name\":\"\xff\"}]}"},
	{"control character", false, "{\"nets\":[{\"name\":\"a\tb\"}]}"},
	{"bom", false, "\xef\xbb\xbf{\"nets\":[]}"},
	{"trailing garbage", false, `{"nets":[]} x`},
	{"second value", false, `{"nets":[]}{"nets":[]}`},
	{"unknown key", false, `{"nets":[],"bogus":1}`},
	{"wrong type", false, `{"nets":{}}`},
	{"string number", false, `{"timeout_ms":"5"}`},
	{"leading zero", false, `{"nets":[{"eps":01}]}`},
	{"bare fraction", false, `{"nets":[{"eps":.5}]}`},
	{"trailing dot", false, `{"nets":[{"eps":1.}]}`},
	{"plus sign", false, `{"nets":[{"eps":+1}]}`},
	{"empty exponent", false, `{"nets":[{"eps":1e}]}`},
	{"trailing comma", false, `{"nets":[{"algo":"mst",}]}`},
	{"array body", false, `[]`},
	{"truncated", false, `{"nets":[{"algo":"mst"`},
	{"empty body", false, ``},
}

// TestDecodeCanonical walks both sides of the canonical form: each
// body takes the expected path and decodes exactly as encoding/json
// decodes it.
func TestDecodeCanonical(t *testing.T) {
	for _, c := range decodeCases {
		if fast := checkDecode(t, []byte(c.body), DefaultMaxBody); fast != c.fast {
			t.Errorf("%s: fast path %v, want %v", c.name, fast, c.fast)
		}
	}
	for _, c := range malformedCases {
		checkDecode(t, []byte(c.body), DefaultMaxBody)
	}
}

// TestDecodeBodyCap pins the capped-body behaviour to encoding/json's:
// a value that ends within the cap decodes whatever follows it, and one
// that runs past the cap fails with the MaxBytesReader error.
func TestDecodeBodyCap(t *testing.T) {
	body := `{"nets":[{"algo":"mst","source":{"x":0,"y":0},"sinks":[{"x":1,"y":2}]}]}`
	n := int64(len(body))
	for _, c := range []struct {
		body  string
		limit int64
	}{
		{body, n},
		{body, n + 1},
		{body, n - 1},
		{body, 1},
		{body + "    ", n},
		{body + "  garbage past the cap", n + 1},
		{body + strings.Repeat(" ", 5000), n + 100},
		{strings.Repeat(" ", 3000) + body, 3000 + n},
		{strings.Repeat(" ", 3000) + body, 3000 + n - 1},
	} {
		checkDecode(t, []byte(c.body), c.limit)
	}
}

// randomName draws a hostile string: HTML characters, control bytes,
// quotes, U+2028/U+2029, other runes and invalid UTF-8.
func randomName(rng *rand.Rand) string {
	parts := []string{"a", "Z", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
		"\u2028", "\u2029", "é", "€", "😀", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\ufffd", "\u00a0"}
	var b strings.Builder
	for i := rng.Intn(8); i > 0; i-- {
		b.WriteString(parts[rng.Intn(len(parts))])
	}
	return b.String()
}

// randomFloat draws from every magnitude the encoder formats
// differently: zeros of both signs, the 'e'-format edges, integers,
// and arbitrary bit patterns.
func randomFloat(rng *rand.Rand) float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20,
		1e22, -1e22, 1.5e-300, 5e-324, math.MaxFloat64, 123456789, 0.1, 2.5e-8, 1e100}
	switch rng.Intn(4) {
	case 0:
		return special[rng.Intn(len(special))]
	case 1:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2:
		return float64(rng.Intn(2000) - 1000)
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
}

// randomResponse draws a BuildResponse covering nil and empty slices,
// zero-edge trees, edges and wires.
func randomResponse(rng *rand.Rand) *BuildResponse {
	if rng.Intn(10) == 0 {
		return &BuildResponse{}
	}
	resp := &BuildResponse{Results: make([]NetResult, rng.Intn(4))}
	for i := range resp.Results {
		r := &resp.Results[i]
		*r = NetResult{Name: randomName(rng), Algo: randomName(rng), Kind: randomName(rng), CacheHit: rng.Intn(2) == 0}
		if rng.Intn(6) == 0 {
			continue // nil trees
		}
		r.Trees = make([]TreeResult, rng.Intn(4))
		for j := range r.Trees {
			t := &r.Trees[j]
			*t = TreeResult{Eps: randomFloat(rng), Cost: randomFloat(rng), Radius: randomFloat(rng), R: randomFloat(rng), PathRatio: randomFloat(rng)}
			switch rng.Intn(4) {
			case 0:
				t.Edges = []Edge{} // empty, omitted like nil
			case 1:
				for k := rng.Intn(5); k > 0; k-- {
					t.Edges = append(t.Edges, Edge{U: rng.Intn(3000) - 5, V: rng.Int(), W: randomFloat(rng)})
				}
			case 2:
				for k := rng.Intn(5); k > 0; k-- {
					t.Wires = append(t.Wires, Wire{
						From: Point{randomFloat(rng), randomFloat(rng)},
						To:   Point{randomFloat(rng), randomFloat(rng)},
						Len:  randomFloat(rng),
					})
				}
			}
		}
	}
	return resp
}

// TestEncodeMatchesEncodingJSON is the encoder's differential test: on
// random responses appendBuildResponse writes json.Encoder's bytes.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		resp := randomResponse(rng)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, ok := appendBuildResponse(nil, resp)
		if !ok || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("response %d (ok %v):\n got %s\nwant %s", i, ok, got, want.Bytes())
		}
	}
}

// TestEncodeNonFinite: a float encoding/json refuses makes the encoder
// refuse the document too.
func TestEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp := &BuildResponse{Results: []NetResult{{Trees: []TreeResult{{Edges: []Edge{{W: f}}}}}}}
		if err := json.NewEncoder(io.Discard).Encode(resp); err == nil {
			t.Fatalf("encoding/json encodes %v", f)
		}
		if _, ok := appendBuildResponse(nil, resp); ok {
			t.Errorf("%v encoded", f)
		}
	}
}

// perfbenchRequest mirrors the body perfbench's serve_closed workload
// sends (perfbench/serve.go, encodeRequest): its own JSON shapes, one
// net, encoded by json.Marshal.
type perfbenchRequest struct {
	Nets []perfbenchNet `json:"nets"`
}

type perfbenchNet struct {
	Source   Point     `json:"source"`
	Sinks    []Point   `json:"sinks"`
	Algo     string    `json:"algo"`
	Eps      float64   `json:"eps,omitempty"`
	EpsSweep []float64 `json:"eps_sweep,omitempty"`
}

// servingExamples extracts the request bodies of SERVING.md's curl
// examples.
func servingExamples(t *testing.T) []string {
	doc, err := os.ReadFile("../../SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, m := range regexp.MustCompile(`(?s)/v1/build -d '(.*?)'`).FindAllStringSubmatch(string(doc), -1) {
		bodies = append(bodies, m[1])
	}
	if len(bodies) == 0 {
		t.Fatal("no curl examples found in SERVING.md")
	}
	return bodies
}

// TestClientBodiesTakeFastPath counts the bodies the repository's
// clients send — perfbench's serve_closed mix, tools/loadgen's burst
// (json.Marshal of BuildRequest; its own test checks the daemon's
// decode_fallbacks counter end to end) and SERVING.md's examples — and
// requires every one to take the canonical parser.
func TestClientBodiesTakeFastPath(t *testing.T) {
	var bodies [][]byte
	eps := []float64{0.1, 0.5, 2}
	for seed := int64(0); seed < 60; seed++ {
		in := bench.Random(seed, 2+int(seed*17%400), 1000)
		pts := in.Points()
		n := perfbenchNet{Source: Point{pts[0].X, pts[0].Y}, Algo: []string{"bkrus", "bkst"}[seed%2]}
		for _, p := range pts[1:] {
			n.Sinks = append(n.Sinks, Point{p.X, p.Y})
		}
		if seed%3 == 0 {
			n.EpsSweep = eps
		} else {
			n.Eps = eps[seed%3]
		}
		bodies = append(bodies, mustMarshal(t, &perfbenchRequest{Nets: []perfbenchNet{n}}))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		net := NetRequest{Name: fmt.Sprintf("n%d", i), Algo: "bkrus", Eps: 0.25, Source: Point{rng.Float64() * 1000, rng.Float64() * 1000}}
		for s := 0; s < 24; s++ {
			net.Sinks = append(net.Sinks, Point{rng.Float64() * 1000, rng.Float64() * 1000})
		}
		if i%3 == 2 {
			net.Eps, net.EpsSweep = 0, []float64{0, 0.2, 0.4, 0.6}
		}
		bodies = append(bodies, mustMarshal(t, &BuildRequest{TimeoutMS: int64(i % 2 * 500), Nets: []NetRequest{net}}))
	}
	for _, b := range servingExamples(t) {
		bodies = append(bodies, []byte(b))
	}
	for i, b := range bodies {
		if !checkDecode(t, b, DefaultMaxBody) {
			t.Errorf("body %d of %d falls back to encoding/json: %.200s", i, len(bodies), b)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeFallbackCounted: the handler counts the bodies encoding/json
// decodes and times both phases.
func TestDecodeFallbackCounted(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, body := range []string{
		`{"nets":[` + tinyNet + `]}`,
		`{"NETS":[` + tinyNet + `]}`,
		`{"nets":[` + tinyNet + `]} trailing`,
		`{"nets":[`,
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/build", strings.NewReader(body)))
	}
	if got := s.c.DecodeFallbacks.Load(); got != 3 {
		t.Errorf("%s = %d, want 3", CtrDecodeFallbacks, got)
	}
	if got := s.c.Decode.Count(); got != 4 {
		t.Errorf("%s count = %d, want 4", TimerDecode, got)
	}
	if got := s.c.Encode.Count(); got != 3 {
		t.Errorf("%s count = %d, want 3 (one per 200)", TimerEncode, got)
	}
}

// codecBenchBodies are fixed one-net bkrus bodies of 4, 64 and 300
// sinks, with their 200 responses decoded for the encode rows.
func codecBenchBodies(b *testing.B) (sizes []int, bodies [][]byte, resps []*BuildResponse) {
	h := New(Config{}).Handler()
	for _, n := range []int{4, 64, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		body := []byte(`{"nets":[` + randomNetJSON(rng, n, "bkrus", `"eps":0.2`) + `]}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/build", bytes.NewReader(body)))
		var resp BuildResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		sizes, bodies, resps = append(sizes, n), append(bodies, body), append(resps, &resp)
	}
	return sizes, bodies, resps
}

// BenchmarkCodec times the /v1/build codec against encoding/json on the
// same fixed bodies: decode (impl=fast is decodeRequest from a reader,
// impl=json the Decoder the handler used before) and encode
// (appendBuildResponse into a reused buffer, or json.Encoder).
func BenchmarkCodec(b *testing.B) {
	sizes, bodies, resps := codecBenchBodies(b)
	for i, n := range sizes {
		body, resp := bodies[i], resps[i]
		b.Run(fmt.Sprintf("op=decode/sinks=%d/impl=fast", n), func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				var req BuildRequest
				if fast, err := decodeRequest(bytes.NewReader(body), DefaultMaxBody, &buf, &req); !fast || err != nil {
					b.Fatal(fast, err)
				}
			}
		})
		b.Run(fmt.Sprintf("op=decode/sinks=%d/impl=json", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var req BuildRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("op=encode/sinks=%d/impl=fast", n), func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = appendBuildResponse(buf[:0], resp)
			}
		})
		b.Run(fmt.Sprintf("op=encode/sinks=%d/impl=json", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
