package fastdiv

import (
	"math"
	"math/rand"
	"testing"
)

// TestDivisorMatchesOperators pins DivMod to / and %, bit for bit, for
// every divisor the callers build — a zone's blocks per track (71-122 on
// the Cheetah) and per cylinder (284-488), channel counts, a layout's
// stripe unit, data units per row and group size, all swept from 1 to
// 1024; revolution times; SpreadLayout's granule-slot counts, sampled
// up to 2^40 — at the dividends where an estimate could slip (0, d-1,
// d, d+1, multiples ±1, 2^32-1, the int64 range's ends) and at random
// ones: blocks below 2^32, instants up to 2^53-1 and beyond.
func TestDivisorMatchesOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	divisors := map[int64]int{math.MaxInt64: 200000, 1 << 32: 200000}
	for d := int64(1); d <= 1024; d++ {
		divisors[d] = 4000
	}
	for _, rpm := range []int64{5400, 7200, 10000, 15000} {
		divisors[60_000_000_000/rpm] = 200000
	}
	for i := 0; i < 16; i++ {
		divisors[1025+rng.Int63n(1<<40)] = 50000
	}
	for d, draws := range divisors {
		v := New(d)
		check := func(n int64) {
			if q, r := v.DivMod(n); q != n/d || r != n%d {
				t.Fatalf("DivMod(%d) by %d = %d rem %d, want %d rem %d", n, d, q, r, n/d, n%d)
			}
		}
		for _, n := range []int64{0, 1, d - 1, d, d + 1, 1<<32 - 1, 1 << 32, 1<<53 - 1, math.MaxInt64, -1, -d, math.MinInt64} {
			check(n)
			if m := n / d * d; n > 0 { // the multiple of d at or below n, and its neighbours
				check(m - 1)
				check(m)
				check(m + 1)
			}
		}
		for i := 0; i < draws; i++ {
			switch i % 4 {
			case 0:
				check(rng.Int63n(1 << 32))
			case 1:
				check(rng.Int63n(1 << 53))
			case 2:
				check(rng.Int63())
			default:
				check(rng.Int63n(min(d, math.MaxInt64/4) * 4)) // around the skip
			}
		}
	}
}

// TestNewRejectsNonPositive: a zero or negative divisor is a set-up bug.
func TestNewRejectsNonPositive(t *testing.T) {
	for _, d := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", d)
				}
			}()
			New(d)
		}()
	}
}
