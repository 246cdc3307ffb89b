// Fixture: clean idioms the intwidth analyzer must stay silent on,
// plus one stale suppression (want:lint).
package fixture

import "math"

// The width pin is itself the first clean idiom: the blank constant
// fails to compile where int is narrower than 63 bits, which is what
// licenses WideClean's arithmetic.
const _ uint = 1 << 62

// WideClean does the size arithmetic in int, which the pin above
// guarantees is 64 bits; nothing to flag.
func WideClean(n int) int {
	return n * n
}

// id32 is the checked helper: it panics outside int32's range, so its
// return is the one place a narrowing may stand.
func id32(x int) int32 {
	if x < 0 || x > math.MaxInt32 {
		panic("fixture: id outside the int32 id space")
	}
	return int32(x)
}

// byteID checks a tighter range than uint8's, with the constants on
// the left and a non-strict comparison.
func byteID(x int) uint8 {
	if 0 > x || x >= 200 {
		panic("fixture: id outside the byte id space")
	}
	return uint8(x)
}

// halfID narrows an unsigned value: its lower bound needs no check.
func halfID(x uint) uint16 {
	if x > math.MaxUint16 {
		panic("fixture: id outside the uint16 id space")
	}
	return uint16(x)
}

// UseClean goes through the helpers, converts constants (checked by
// the compiler), widens, and folds constant 32-bit arithmetic.
func UseClean(n int, k int32) (int32, uint8, uint16, int64, int32) {
	const cells int32 = 1 << 20
	return id32(n), byteID(n), halfID(uint(n)), int64(k), int32(7) * cells
}

// StaleSuppression suppresses a narrowing the helper shape already
// accepts; the suppression is therefore unused and must be reported.
func StaleSuppression(x int) int32 {
	if x < 0 || x > math.MaxInt32 {
		panic("fixture: id outside the int32 id space")
	}
	//lint:ignore intwidth suppressing a conversion the helper shape already accepts // want:lint
	return int32(x)
}
