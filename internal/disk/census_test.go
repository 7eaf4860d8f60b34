package disk

import (
	"math/rand"
	"testing"

	"craid/internal/metrics"
	"craid/internal/sim"
)

// TestTallyReadsAsHistogram: tallying small samples on the side and
// folding them in on read gives the histogram that was handed every
// sample as it came — including samples too large to tally, reads in the
// middle of the stream, and an empty tally.
func TestTallyReadsAsHistogram(t *testing.T) {
	var s tally
	if h := s.fold(); h.Count() != 0 || !h.Equal(metrics.NewLatencyHist()) {
		t.Fatalf("empty tally reads %v", h)
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
			if h := s.fold(); !h.Equal(want) {
				t.Fatalf("after %d samples: folded histogram %v, want %v", i, h, want)
			}
		}
	}
}

// TestCensusCountsClockedSpells: the census's cached count of running
// busy spells equals a scan of every clocked device's spell end, as
// spells are extended, run out, end at the same instant and join late.
func TestCensusCountsClockedSpells(t *testing.T) {
	var c Census
	var ends []sim.Time // the devices' spell ends, as they keep them
	rng := rand.New(rand.NewSource(3))
	var now sim.Time
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(1000); {
		case r == 0 && len(ends) < 16:
			ends = append(ends, now+sim.Time(rng.Intn(3))*10) // busy or idle on arrival
			if i := c.clock(ends[len(ends)-1]); i != len(ends)-1 {
				t.Fatalf("device %d joined as %d", len(ends)-1, i)
			}
		case r < 500 && len(ends) > 0:
			i := rng.Intn(len(ends))
			if end := now + sim.Time(rng.Intn(8))*10; end > ends[i] {
				ends[i] = end
				c.extend(i, end, now)
			}
		default:
			now += sim.Time(rng.Intn(3)) * 5 // on, at and between the ends
		}
		c.pushed = rng.Intn(4)
		want := c.pushed
		for _, u := range ends {
			if u > now {
				want++
			}
		}
		if rng.Intn(3) == 0 { // not every step reads
			if got := c.busyAt(now); got != want {
				t.Fatalf("step %d at %v: census counts %d busy, scanning %v gives %d", step, now, got, ends, want)
			}
		}
	}
}
