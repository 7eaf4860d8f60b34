package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEngineTimed is the timed queue's cost curve: a
// self-sustaining event population shaped like disk-model traffic —
// delays from ~30 µs (SSD page) to ~8 ms (HDD full seek) — held at a
// steady `pending` events. Insertion is O(pending), so ns/op must be
// read against the pending sizes the simulator really has (README,
// "Event engine"): 4-16 is the benchmark's workloads, 64 their
// high-water mark, 1024 and 4096 are where the design stops paying.
func BenchmarkEngineTimed(b *testing.B) {
	for _, pending := range []int{4, 16, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			delays := make([]Time, 1024)
			rng := rand.New(rand.NewSource(42))
			for i := range delays {
				switch rng.Intn(3) {
				case 0:
					delays[i] = Time(rng.Int63n(int64(200*Microsecond))) + 30*Microsecond
				case 1:
					delays[i] = Time(rng.Int63n(int64(2*Millisecond))) + 100*Microsecond
				default:
					delays[i] = Time(rng.Int63n(int64(8*Millisecond))) + 1*Millisecond
				}
			}
			eng := NewEngine()
			remaining := b.N
			var fn func(Time)
			di := 0
			fn = func(at Time) {
				if remaining--; remaining <= 0 {
					return
				}
				di = (di + 1) & 1023
				eng.AfterTimed(delays[di], fn)
			}
			for i := 0; i < pending && remaining > 0; i++ {
				di = (di + 1) & 1023
				eng.AfterTimed(delays[di], fn)
				remaining--
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkEngineSameTickRing measures the zero-delay completion hop
// (instant devices): all events go through the FIFO ring.
func BenchmarkEngineSameTickRing(b *testing.B) {
	eng := NewEngine()
	remaining := b.N
	var fn func(Time)
	fn = func(at Time) {
		if remaining--; remaining > 0 {
			eng.AfterTimed(0, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.AfterTimed(0, fn)
	eng.Run()
}
