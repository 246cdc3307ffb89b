package geom

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzIndexMaxPoints caps a fuzzed point set, so the brute-force scan
// stays cheap.
const fuzzIndexMaxPoints = 96

// fuzzPoints decodes a fuzz input into a point set. With lattice set,
// every byte pair is a point on the small integer grid
// [−128, 127]², which makes coincident points and distance ties
// common; otherwise every 16 bytes are two little-endian float64
// coordinates. Non-finite coordinates are dropped: no instance can
// hold them.
func fuzzPoints(data []byte, lattice bool) []Point {
	var pts []Point
	if lattice {
		for k := 0; k+1 < len(data) && len(pts) < fuzzIndexMaxPoints; k += 2 {
			pts = append(pts, Point{X: float64(int8(data[k])), Y: float64(int8(data[k+1]))})
		}
		return pts
	}
	for k := 0; k+15 < len(data) && len(pts) < fuzzIndexMaxPoints; k += 16 {
		p := Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(data[k:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(data[k+8:])),
		}
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			continue
		}
		pts = append(pts, p)
	}
	return pts
}

// floatSeed encodes coordinates as fuzzPoints reads them with lattice
// unset.
func floatSeed(coords ...float64) []byte {
	b := make([]byte, 8*len(coords))
	for k, c := range coords {
		binary.LittleEndian.PutUint64(b[8*k:], math.Float64bits(c))
	}
	return b
}

// FuzzIndex checks the octant index on arbitrary point sets: every
// octant slot of the serial search must equal a brute-force scan with
// the same (distance, id) tie-break, id and distance bit for bit, and
// the parallel search must equal the serial one, tables and counters.
// The seed corpus holds the degenerate layouts: coincident points,
// collinear points, tie-heavy lattices, coordinates near 2⁵³, huge
// coordinates whose differences overflow, and signed zeros.
func FuzzIndex(f *testing.F) {
	const p53 = 1 << 53
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		data    []byte
		lattice bool
	}{
		{floatSeed(1, 1, 1, 1, 1, 1, 2, 2), false},                                         // coincident
		{floatSeed(0, 5, 1, 5, 2, 5, 9, 5, 3, 0, 3, 2, 3, 7), false},                       // collinear rows and columns
		{floatSeed(0, 0, 1, 1, 2, 2, 3, 3, -1, -1, 5, -5, -2, 2), false},                   // diagonals
		{[]byte{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1, 0, 2, 1, 2, 2, 2, 1, 1, 255, 1}, true}, // tie-heavy lattice
		{[]byte{0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 253, 0, 0, 253}, true},                       // coincident on a lattice
		{floatSeed(p53, p53, p53+2, p53, p53-1, p53+2, p53, p53-1, p53+4, p53+4), false},   // near 2⁵³
		{floatSeed(math.MaxFloat64, 0, -math.MaxFloat64, 0, 0, math.MaxFloat64, 0, -math.MaxFloat64, 1, 1), false},
		{floatSeed(1e308, 1e308, -1e308, -1e308, 1e308, -1e308, 0, 0, 1e-308, -1e-308), false},
		{floatSeed(0, 0, negZero, 0, 0, negZero, negZero, negZero, 1, negZero, negZero, 1), false}, // signed zeros
	} {
		f.Add(seed.data, seed.lattice, false, uint8(1))
		f.Add(seed.data, seed.lattice, true, uint8(6))
	}
	f.Fuzz(func(t *testing.T, data []byte, lattice, euclidean bool, workers uint8) {
		pts := fuzzPoints(data, lattice)
		m := Manhattan
		if euclidean {
			m = Euclidean
		}
		serial := newIndex(pts, m, 1)
		for i := range pts {
			wantID, wantD := bruteOctantNearest(pts, m, i)
			for o := 0; o < Octants; o++ {
				j, d, ok := serial.Neighbor(i, o)
				if ok != (wantID[o] >= 0) || (ok && (int32(j) != wantID[o] || math.Float64bits(d) != math.Float64bits(wantD[o]))) {
					t.Fatalf("%v point %d %v octant %d: got (%d, %g, %v), brute force (%d, %g)",
						m, i, pts[i], o, j, d, ok, wantID[o], wantD[o])
				}
			}
		}
		w := 2 + int(workers%7)
		if diff := sameIndex(serial, newIndex(pts, m, w)); diff != "" {
			t.Fatalf("%v %d points, workers=%d: %s", m, len(pts), w, diff)
		}
	})
}
