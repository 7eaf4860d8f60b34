package core

import (
	"math/rand"
	"testing"

	"craid/internal/metrics"
	"craid/internal/sim"
)

// TestSamplerReadsAsHistogram: tallying small samples on the side and
// folding them in on read gives the statistics of a histogram that was
// handed every sample as it came — including samples too large to
// tally, reads in the middle of the stream, and an empty sampler.
func TestSamplerReadsAsHistogram(t *testing.T) {
	var s sampler
	if mean, p99, max := s.stats(); mean != 0 || p99 != 0 || max != 0 {
		t.Fatalf("empty sampler reads %v %v %v", mean, p99, max)
	}
	want := metrics.NewLatencyHist()
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 300000; i++ {
		v := rng.Intn(56) // a device census: 0..55
		switch rng.Intn(100) {
		case 0:
			v = 64 + rng.Intn(5000) // a deep queue: past the tallies
		case 1:
			v = len(s.small) - 1 + rng.Intn(2) // either side of the edge
		}
		s.add(v)
		want.Add(sim.Time(v))
		if i%100000 == 0 {
			mean, p99, max := s.stats()
			if mean != float64(want.Mean()) || p99 != int64(want.Percentile(0.99)) || max != int64(want.Max()) {
				t.Fatalf("after %d samples: sampler reads %v %v %v, histogram %v", i, mean, p99, max, want)
			}
			if !s.hist.Equal(want) {
				t.Fatalf("after %d samples: folded histogram %v, want %v", i, &s.hist, want)
			}
		}
	}
}
