package disk

import (
	"craid/internal/metrics"
	"craid/internal/sim"
)

// Census is the paper's Table 5 sample of one array (I/O queue size and
// concurrently busy devices), taken by the array's devices themselves:
// every submission to a device that joined the census records that
// device's queue depth and how many of the census's devices are busy,
// before the request changes either — rejected submissions included.
//
// Devices report their busy state in one of two ways. A model whose
// busy state flips only at its own events (the HDD) pushes each flip
// into a running count. A model whose busy spell simply runs out as the
// clock advances (the SSD) reports the instant it ends whenever it
// extends it; the census keeps how many of those spells are running and
// the earliest of them to end, and counts them afresh only once that
// instant has passed, so a sample costs O(1) amortised.
//
// The zero value is an empty census. Like the engine its devices share,
// a census is single-threaded.
type Census struct {
	depths tally // the target device's queue depth, per submission
	busy   tally // the census's busy devices, per submission

	pushed int // busy devices among those that push their flips

	// until[i] is the instant clocked device i's busy spell ends (the
	// device keeps its i). running spells were still going at the last
	// count, and next is the earliest of their ends: until then, running
	// is the count, with extend keeping both in step.
	until   []sim.Time
	running int
	next    sim.Time
}

// CensusTaker is implemented by device models that sample a Census in
// Submit: JoinCensus makes the device report into c from now on, its
// current busy state included. A device reports to one census at a time.
type CensusTaker interface {
	JoinCensus(c *Census)
}

// sample records one submission to a device whose queue depth is depth,
// at now.
func (c *Census) sample(depth int, now sim.Time) {
	c.depths.add(depth)
	c.busy.add(c.busyAt(now))
}

// busyAt returns how many of the census's devices are busy at now, which
// must not precede any instant the census has seen.
func (c *Census) busyAt(now sim.Time) int {
	if now >= c.next {
		c.running, c.next = 0, sim.MaxTime
		for _, u := range c.until {
			if u > now {
				c.running++
				c.next = min(c.next, u)
			}
		}
	}
	return c.pushed + c.running
}

// clock adds a clocked device whose busy spell ends at until and returns
// its index.
func (c *Census) clock(until sim.Time) int {
	c.until = append(c.until, until)
	c.next = 0 // count afresh at the next sample
	return len(c.until) - 1
}

// extend moves the end of clocked device i's busy spell, at now, to
// until, which is no earlier than before. When the count is already due
// for a refresh (now >= next), that refresh reads until alone, and
// nothing done here can make it due any later.
func (c *Census) extend(i int, until, now sim.Time) {
	if until <= now {
		c.until[i] = until
		return
	}
	if c.until[i] <= now {
		c.running++
	}
	c.until[i] = until
	c.next = min(c.next, until)
}

// QueueDepths returns the histogram of the sampled queue depths (sample
// unit: the depth, abusing ns=count).
func (c *Census) QueueDepths() *metrics.LatencyHist { return c.depths.fold() }

// BusyCounts returns the histogram of the sampled busy-device counts
// (sample unit: the count).
func (c *Census) BusyCounts() *metrics.LatencyHist { return c.busy.fold() }

// tally is a histogram of small counts, taken once per submission:
// values below len(small) — nearly all of them — are counted in place
// and reach the histogram when it is read. The histogram cannot tell:
// its bucket counts are order-free, and its float64 sum is exact in any
// order, every sample being an integer and the total staying below 2^53.
type tally struct {
	small [64]int64
	hist  metrics.LatencyHist
}

func (s *tally) add(v int) {
	if uint(v) < uint(len(s.small)) {
		s.small[v]++
		return
	}
	s.hist.Add(sim.Time(v))
}

// fold hands the counted values to the histogram and returns it.
func (s *tally) fold() *metrics.LatencyHist {
	// Largest first, so the histogram sizes its buckets once.
	for v := len(s.small) - 1; v >= 0; v-- {
		s.hist.AddN(sim.Time(v), s.small[v])
		s.small[v] = 0
	}
	return &s.hist
}
