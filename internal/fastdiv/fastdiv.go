// Package fastdiv divides by a value fixed at set-up without the
// hardware divide: a disk zone's blocks per track and per cylinder, the
// revolution time, an SSD's channel count, and a striped layout's
// stripe unit, data units per row and parity-group size. The device
// models pay several such divisions per I/O and the layouts several per
// extent, so each is worth a multiplication instead.
package fastdiv

import "math/bits"

// Divisor divides by d: m is floor((2^64-1)/d), so the high word of n*m
// is n/d or one less, and one compare against the remainder settles
// which.
type Divisor struct{ d, m uint64 }

// New returns a Divisor by d, which must be positive.
func New(d int64) Divisor {
	if d < 1 {
		panic("fastdiv: divisor must be positive")
	}
	return Divisor{d: uint64(d), m: ^uint64(0) / uint64(d)}
}

// DivMod returns n/d and n%d, bit for bit. The estimate is exact to
// within one for 0 <= n < 2^63 (it falls short of n/d by less than
// n/2^64 < 1/2): block numbers (< 2^32 on the Cheetah) and instants
// (< 2^53 ns) are far inside that; a negative n takes the plain
// operators.
func (v Divisor) DivMod(n int64) (q, r int64) {
	if uint64(n) < v.d {
		// Inside one track, one cylinder, one stripe unit: the common
		// case, and no arithmetic at all. Never taken by n < 0.
		return 0, n
	}
	if n < 0 {
		return n / int64(v.d), n % int64(v.d)
	}
	hi, _ := bits.Mul64(uint64(n), v.m)
	rem := uint64(n) - hi*v.d
	if rem >= v.d {
		hi++
		rem -= v.d
	}
	return int64(hi), int64(rem)
}
