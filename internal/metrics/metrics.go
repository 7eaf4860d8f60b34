// Package metrics provides the measurement utilities the experiments
// use: streaming moments (Welford), log-bucketed latency histograms
// with percentiles, per-interval per-disk load tracking for the
// coefficient-of-variation distribution analysis (paper §5.3), and
// per-interval sequentiality tracking (paper Fig. 5).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"craid/internal/sim"
)

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// CV returns the coefficient of variation σ/µ (0 when µ is 0).
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Stddev() / w.mean
}

// LatencyHist is a latency histogram with logarithmic buckets (~3%
// resolution), supporting percentiles over millions of samples in
// constant memory. Buckets live in a dense []int64 (at most ~8 KiB,
// grown on demand) indexed by a constant-time math/bits bucketing with
// edges bit-identical to the floating-point log2 reference the
// histogram originally used (pinned by property tests).
type LatencyHist struct {
	buckets []int64
	count   int64
	sum     float64
	max     sim.Time
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{}
}

const latBucketsPerOctave = 16

// latBucketRef is the floating-point reference bucketing. It remains
// the definition of the bucket edges: latThresh below is derived from
// it at init, and the property suite pins latBucket against it.
func latBucketRef(t sim.Time) int {
	if t <= 0 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(t)) * latBucketsPerOctave))
}

// latThresh[k][j] is the smallest t in octave k (bits.Len64(t)-1 == k)
// whose reference bucket is >= 16k+j. Row entry 0 is the octave floor;
// entries that no t in the octave reaches hold MaxUint64. Because
// float64(t) rounds, samples at the top of a large octave can land in
// bucket 16(k+1) — hence 17 entries, not 16.
var latThresh [63][17]uint64

func init() {
	for k := 0; k < 63; k++ {
		lo := uint64(1) << uint(k)
		hi := lo<<1 - 1
		if k == 62 {
			hi = uint64(math.MaxInt64)
		}
		row := &latThresh[k]
		row[0] = lo
		for j := 1; j <= 16; j++ {
			target := k*latBucketsPerOctave + j
			if latBucketRef(sim.Time(hi)) < target {
				row[j] = math.MaxUint64
				continue
			}
			a, b := lo, hi
			for a < b {
				m := a + (b-a)/2
				if latBucketRef(sim.Time(m)) >= target {
					b = m
				} else {
					a = m + 1
				}
			}
			row[j] = a
		}
	}
}

// latBucket computes the reference bucket in constant time: locate the
// octave with bits.Len64, then binary-search the 17 precomputed
// thresholds in four compares.
func latBucket(t sim.Time) int {
	if t <= 0 {
		return 0
	}
	u := uint64(t)
	k := bits.Len64(u) - 1
	row := &latThresh[k]
	j := 0
	if u >= row[16] {
		j = 16
	} else {
		if u >= row[j+8] {
			j += 8
		}
		if u >= row[j+4] {
			j += 4
		}
		if u >= row[j+2] {
			j += 2
		}
		if u >= row[j+1] {
			j++
		}
	}
	return k*latBucketsPerOctave + j
}

func latBucketValue(b int) sim.Time {
	return sim.Time(math.Exp2((float64(b) + 0.5) / latBucketsPerOctave))
}

// Add records one latency sample.
func (h *LatencyHist) Add(t sim.Time) { h.AddN(t, 1) }

// AddN records n samples of t at once. The result is what n calls of
// Add(t) leave as long as the running sum is an integer below 2^53
// (float64 adds such values exactly, in any grouping) — which holds for
// whoever tallies small counts on the side and hands them over here.
func (h *LatencyHist) AddN(t sim.Time, n int64) {
	if n <= 0 {
		return
	}
	b := latBucket(t)
	if b >= len(h.buckets) {
		grown := make([]int64, b+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[b] += n
	h.count += n
	h.sum += float64(t) * float64(n)
	if t > h.max {
		h.max = t
	}
}

// Count returns the number of samples.
func (h *LatencyHist) Count() int64 { return h.count }

// Mean returns the exact mean latency.
func (h *LatencyHist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.count))
}

// Max returns the largest sample.
func (h *LatencyHist) Max() sim.Time { return h.max }

// Percentile returns the latency at quantile p in [0,1], within the
// bucket resolution (~3%).
func (h *LatencyHist) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target >= h.count {
		return h.max
	}
	var cum int64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			v := latBucketValue(b)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *LatencyHist) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.max)
}

// Equal reports whether h and o hold bit-identical distributions —
// the same samples, bucket for bucket. Determinism property tests use
// it to pin that two simulations produced the same latency stream.
func (h *LatencyHist) Equal(o *LatencyHist) bool {
	if h.count != o.count || h.sum != o.sum || h.max != o.max {
		return false
	}
	n := len(h.buckets)
	if len(o.buckets) > n {
		n = len(o.buckets)
	}
	for b := 0; b < n; b++ {
		var a, c int64
		if b < len(h.buckets) {
			a = h.buckets[b]
		}
		if b < len(o.buckets) {
			c = o.buckets[b]
		}
		if a != c {
			return false
		}
	}
	return true
}

// LoadTracker accumulates per-disk I/O volume into fixed time intervals
// and reports, per interval, the coefficient of variation of the
// per-disk load — the paper's uniformity metric (§5.3): cv = σ/µ of MB
// moved per disk per second.
type LoadTracker struct {
	interval  sim.Time
	disks     int
	current   int64 // index of the interval being accumulated
	load      []float64
	intervals []float64 // finished per-interval cv values
	active    bool      // any load recorded in the current interval
}

// NewLoadTracker tracks disks devices at the given interval
// granularity.
func NewLoadTracker(disks int, interval sim.Time) *LoadTracker {
	if disks < 1 || interval <= 0 {
		panic("metrics: invalid LoadTracker parameters")
	}
	return &LoadTracker{interval: interval, disks: disks, load: make([]float64, disks)}
}

// Add records bytes moved on disk at time at.
func (l *LoadTracker) Add(at sim.Time, diskIdx int, bytes int64) {
	idx := int64(at / l.interval)
	for l.current < idx {
		l.flush()
	}
	l.load[diskIdx] += float64(bytes)
	l.active = true
}

func (l *LoadTracker) flush() {
	if l.active {
		var w Welford
		for _, v := range l.load {
			w.Add(v)
		}
		l.intervals = append(l.intervals, w.CV())
		for i := range l.load {
			l.load[i] = 0
		}
		l.active = false
	}
	l.current++
}

// CVs finalizes the current interval and returns the cv of every
// interval that saw I/O.
func (l *LoadTracker) CVs() []float64 {
	if l.active {
		l.flush()
	}
	out := make([]float64, len(l.intervals))
	copy(out, l.intervals)
	return out
}

// Resize changes the number of tracked disks (array expansion). The
// current interval is flushed first so old and new widths don't mix.
func (l *LoadTracker) Resize(disks int) {
	if l.active {
		l.flush()
	}
	l.disks = disks
	l.load = make([]float64, disks)
}

// SeqTracker measures access sequentiality per time interval: the
// fraction of block accesses that start exactly where the previous
// access on the same disk ended (paper Fig. 5: #SeqAccess/#Accesses
// aggregated per second).
type SeqTracker struct {
	interval sim.Time
	lastEnd  map[int]int64
	current  int64
	seq, tot int64
	results  []float64
}

// NewSeqTracker returns a tracker with the given aggregation interval.
func NewSeqTracker(interval sim.Time) *SeqTracker {
	if interval <= 0 {
		panic("metrics: invalid SeqTracker interval")
	}
	return &SeqTracker{interval: interval, lastEnd: make(map[int]int64)}
}

// Add records an access of count blocks at block on diskIdx at time at.
func (s *SeqTracker) Add(at sim.Time, diskIdx int, block, count int64) {
	idx := int64(at / s.interval)
	for s.current < idx {
		s.flushInterval()
	}
	if end, ok := s.lastEnd[diskIdx]; ok && end == block {
		s.seq++
	}
	s.tot++
	s.lastEnd[diskIdx] = block + count
}

func (s *SeqTracker) flushInterval() {
	if s.tot > 0 {
		s.results = append(s.results, float64(s.seq)/float64(s.tot))
	}
	s.seq, s.tot = 0, 0
	s.current++
}

// Fractions finalizes the current interval and returns per-interval
// sequential-access fractions.
func (s *SeqTracker) Fractions() []float64 {
	if s.tot > 0 {
		s.flushInterval()
	}
	out := make([]float64, len(s.results))
	copy(out, s.results)
	return out
}

// CDF computes an empirical CDF of samples evaluated at the given
// points: out[i] = P(X <= at[i]).
func CDF(samples []float64, at []float64) []float64 {
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	out := make([]float64, len(at))
	for i, x := range at {
		out[i] = float64(sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))) /
			float64(max(len(sorted), 1))
	}
	return out
}

// Quantile returns the q-quantile (0..1) of samples by linear
// interpolation; it copies and sorts internally.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of samples (0 when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
