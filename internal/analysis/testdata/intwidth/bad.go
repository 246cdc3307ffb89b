// Fixture: true positives for the intwidth analyzer. The width pin
// lives in clean.go, so every finding here is about arithmetic or
// narrowing, not the pin. Lines marked `want:intwidth` must each
// produce exactly one diagnostic.
package fixture

import "math"

// CellsBad computes a cell count in int32: the product of two 32-bit
// values can overflow silently.
func CellsBad(n int32) int32 {
	return n * n // want:intwidth
}

// ShiftBad shifts a 32-bit value, which can leave its type's range.
func ShiftBad(n int32) int32 {
	return n << 8 // want:intwidth
}

// SumBad adds two 16-bit values.
func SumBad(a, b uint16) uint16 {
	return a + b // want:intwidth
}

// NarrowBad converts a size to int32 without a check.
func NarrowBad(n int) int32 {
	return int32(n) // want:intwidth
}

// ClampedConvBad clamps before narrowing. The clamp is right, but a
// narrowing is accepted only from a helper that panics on a bad value,
// where a bug shows instead of being folded into range.
func ClampedConvBad(n int) int32 {
	if n < 0 {
		n = 0
	}
	if n > math.MaxInt32 {
		n = math.MaxInt32
	}
	return int32(n) // want:intwidth
}

// LooseGuardBad panics outside a range wider than uint16's.
func LooseGuardBad(x int) uint16 {
	if x < 0 || x > math.MaxInt32 {
		panic("fixture: id out of range")
	}
	return uint16(x) // want:intwidth
}

// OneSidedBad checks only the upper bound.
func OneSidedBad(x int) int32 {
	if x > math.MaxInt32 {
		panic("fixture: id out of range")
	}
	return int32(x) // want:intwidth
}

// NoPanicBad returns a sentinel instead of panicking, so the guard
// does not stop the conversion.
func NoPanicBad(x int) int32 {
	if x < 0 || x > math.MaxInt32 {
		return -1
	}
	return int32(x) // want:intwidth
}

// NotAParamBad guards its parameter but narrows another value.
func NotAParamBad(x int) int32 {
	if x < 0 || x > math.MaxInt32 {
		panic("fixture: id out of range")
	}
	y := 2 * x
	return int32(y) // want:intwidth
}

// MidBodyBad narrows under a good guard, but not as the return value.
func MidBodyBad(x int, out []int32) {
	if x < 0 || x > math.MaxInt32 {
		panic("fixture: id out of range")
	}
	out[0] = int32(x) // want:intwidth
}
