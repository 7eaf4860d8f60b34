package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"craid/internal/sim"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if w.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if got, want := w.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 || w.CV() != 0 {
		t.Error("empty Welford must return zeros")
	}
	w.Add(5)
	if w.Variance() != 0 || w.CI95() != 0 {
		t.Error("single-sample variance must be 0")
	}
}

func TestWelfordCV(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(10) // perfectly uniform
	}
	if w.CV() != 0 {
		t.Errorf("CV of constant samples = %v, want 0", w.CV())
	}
}

// Property: Welford matches the two-pass calculation.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range raw {
			w.Add(float64(x))
			sum += float64(x)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, x := range raw {
			d := float64(x) - mean
			ss += d * d
		}
		variance := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(w.Variance()-variance) < 1e-6*(1+variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLatencyHistPercentiles(t *testing.T) {
	h := NewLatencyHist()
	// 1..1000 µs uniformly.
	for i := 1; i <= 1000; i++ {
		h.Add(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d", h.Count())
	}
	wantMean := 500.5 * float64(sim.Microsecond)
	if got := float64(h.Mean()); math.Abs(got-wantMean) > 1 {
		t.Errorf("Mean = %v, want %v", got, wantMean)
	}
	// Log buckets give ~±5% accuracy.
	p50 := float64(h.Percentile(0.5)) / float64(sim.Microsecond)
	if p50 < 450 || p50 > 550 {
		t.Errorf("p50 = %vµs, want ~500", p50)
	}
	p99 := float64(h.Percentile(0.99)) / float64(sim.Microsecond)
	if p99 < 930 || p99 > 1000 {
		t.Errorf("p99 = %vµs, want ~990", p99)
	}
	if h.Max() != 1000*sim.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	if h.Percentile(1.0) != h.Max() {
		t.Errorf("p100 = %v, want max %v", h.Percentile(1.0), h.Max())
	}
}

func TestLatencyHistEmptyAndZero(t *testing.T) {
	h := NewLatencyHist()
	if h.Percentile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must return zeros")
	}
	h.Add(0)
	if h.Count() != 1 {
		t.Error("zero latency not recorded")
	}
}

// Property: percentiles are monotone in p and bounded by max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHist()
		for i := 0; i < 500; i++ {
			h.Add(sim.Time(rng.Int63n(int64(sim.Second))))
		}
		prev := sim.Time(0)
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Percentile(p)
			if v < prev || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLoadTrackerUniformVsSkewed(t *testing.T) {
	// Perfectly uniform load → cv 0 in every interval.
	lt := NewLoadTracker(4, sim.Second)
	for s := 0; s < 3; s++ {
		for d := 0; d < 4; d++ {
			lt.Add(sim.Time(s)*sim.Second+sim.Millisecond, d, 1000)
		}
	}
	for i, cv := range lt.CVs() {
		if cv != 0 {
			t.Errorf("interval %d cv = %v, want 0 for uniform load", i, cv)
		}
	}

	// All load on one disk → cv = 2 for 4 disks (σ/µ of [x,0,0,0]).
	lt2 := NewLoadTracker(4, sim.Second)
	lt2.Add(0, 0, 4000)
	cvs := lt2.CVs()
	if len(cvs) != 1 {
		t.Fatalf("got %d intervals, want 1", len(cvs))
	}
	if math.Abs(cvs[0]-2.0) > 1e-9 {
		t.Errorf("skewed cv = %v, want 2.0", cvs[0])
	}
}

func TestLoadTrackerSkipsIdleIntervals(t *testing.T) {
	lt := NewLoadTracker(2, sim.Second)
	lt.Add(0, 0, 100)
	lt.Add(10*sim.Second, 1, 100) // 9 idle seconds between
	cvs := lt.CVs()
	if len(cvs) != 2 {
		t.Errorf("got %d intervals, want 2 (idle intervals skipped)", len(cvs))
	}
}

func TestLoadTrackerResize(t *testing.T) {
	lt := NewLoadTracker(2, sim.Second)
	lt.Add(0, 0, 100)
	lt.Resize(4)
	lt.Add(sim.Second, 3, 100) // disk index valid only after resize
	if got := len(lt.CVs()); got != 2 {
		t.Errorf("intervals = %d, want 2", got)
	}
}

func TestSeqTrackerDetectsSequentialRuns(t *testing.T) {
	st := NewSeqTracker(sim.Second)
	// Disk 0: blocks 0,8,16 sequential (two sequential transitions of
	// three accesses); disk 1: scattered.
	st.Add(0, 0, 0, 8)
	st.Add(sim.Millisecond, 0, 8, 8)
	st.Add(2*sim.Millisecond, 0, 16, 8)
	st.Add(3*sim.Millisecond, 1, 100, 8)
	st.Add(4*sim.Millisecond, 1, 500, 8)
	fr := st.Fractions()
	if len(fr) != 1 {
		t.Fatalf("got %d intervals, want 1", len(fr))
	}
	if want := 2.0 / 5.0; math.Abs(fr[0]-want) > 1e-9 {
		t.Errorf("sequential fraction = %v, want %v", fr[0], want)
	}
}

func TestSeqTrackerPerDiskIndependence(t *testing.T) {
	st := NewSeqTracker(sim.Second)
	// Interleaved sequential streams on two disks must both count.
	st.Add(0, 0, 0, 4)
	st.Add(1, 1, 0, 4)
	st.Add(2, 0, 4, 4)
	st.Add(3, 1, 4, 4)
	fr := st.Fractions()
	if want := 2.0 / 4.0; math.Abs(fr[0]-want) > 1e-9 {
		t.Errorf("fraction = %v, want %v (per-disk streams)", fr[0], want)
	}
}

func TestCDF(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5}
	got := CDF(samples, []float64{0, 1, 2.5, 5, 10})
	want := []float64{0, 0.2, 0.4, 1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("CDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(samples, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

// Property: CDF is monotone non-decreasing and within [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []uint8, atRaw []uint8) bool {
		if len(raw) == 0 || len(atRaw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, r := range raw {
			samples[i] = float64(r)
		}
		at := make([]float64, len(atRaw))
		for i, r := range atRaw {
			at[i] = float64(r)
		}
		// Evaluate at sorted points.
		sortFloat(at)
		got := CDF(samples, at)
		prev := 0.0
		for _, v := range got {
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func sortFloat(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func BenchmarkLatencyHistAdd(b *testing.B) {
	h := NewLatencyHist()
	h.Add(sim.Time(1000000)) // pre-grow the dense bucket array
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(sim.Time(i%1000000 + 1))
	}
}

// BenchmarkLatencyHistAddSmall measures small integer samples: the
// queue depths and busy-device counts past what the array tallies on the
// side, and the zero latencies of instant devices.
func BenchmarkLatencyHistAddSmall(b *testing.B) {
	h := NewLatencyHist()
	h.Add(255)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(sim.Time(i & 63))
	}
}

// BenchmarkLatencyHistAddRef measures the retained floating-point
// reference bucketing for comparison with the bits-based path.
func BenchmarkLatencyHistAddRef(b *testing.B) {
	m := make(map[int]int64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m[latBucketRef(sim.Time(i%1000000+1))]++
	}
}

// TestLatencyHistAddNIsRepeatedAdd: handing over tallied samples leaves
// the histogram a sample-by-sample Add leaves, whatever the order, for
// integer samples whose sum stays below 2^53.
func TestLatencyHistAddNIsRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	one, folded := NewLatencyHist(), NewLatencyHist()
	var tally [300]int64
	for i := 0; i < 200000; i++ {
		v := rng.Intn(len(tally) - 1) // the largest never occurs: an empty tally adds nothing
		if rng.Intn(50) == 0 {
			v = 0
		}
		one.Add(sim.Time(v))
		tally[v]++
	}
	for v := len(tally) - 1; v >= 0; v-- {
		folded.AddN(sim.Time(v), tally[v])
	}
	if !one.Equal(folded) || one.Mean() != folded.Mean() || one.Percentile(0.99) != folded.Percentile(0.99) || one.Max() != folded.Max() {
		t.Fatalf("folded tallies read %v, one Add per sample %v", folded, one)
	}
}

// TestLatencyHistAddAllocFree gates the steady-state Add path at zero
// allocations once the dense array has grown.
func TestLatencyHistAddAllocFree(t *testing.T) {
	h := NewLatencyHist()
	h.Add(sim.Time(1) << 40)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 1; i <= 1000; i++ {
			h.Add(sim.Time(i) * 7919)
		}
	})
	if allocs != 0 {
		t.Fatalf("LatencyHist.Add allocated %.1f per 1000 samples, want 0", allocs)
	}
}

// TestPropertyLatBucketMatchesReference pins the constant-time
// bits-based bucketing bit-identical to the floating-point log2
// reference: exhaustively for small t, at every octave boundary and
// precomputed threshold edge, and over random 63-bit samples.
func TestPropertyLatBucketMatchesReference(t *testing.T) {
	check := func(v sim.Time) {
		if got, want := latBucket(v), latBucketRef(v); got != want {
			t.Fatalf("latBucket(%d) = %d, reference %d", v, got, want)
		}
	}
	for v := sim.Time(-2); v < 1<<20; v++ {
		check(v)
	}
	for k := uint(0); k < 63; k++ {
		for _, d := range []int64{-2, -1, 0, 1, 2} {
			v := int64(1)<<k + d
			if v > 0 {
				check(sim.Time(v))
			}
		}
		for j := 0; j <= 16; j++ {
			th := latThresh[k][j]
			for _, d := range []uint64{0, 1} {
				if th == 0 || th > uint64(1)<<62*2 {
					continue
				}
				v := th - d
				if v > 0 && v <= uint64(1)<<62 {
					check(sim.Time(v))
				}
			}
		}
	}
	check(sim.Time(1)<<62 + 12345)
	check(sim.MaxTime)
	check(sim.MaxTime - 1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2_000_000; i++ {
		check(sim.Time(rng.Int63() + 1))
	}
}

// TestLatencyHistSmallSamplesMatchReference pins Add for small samples
// — counts as much as latencies — to the floating-point reference,
// bucket for bucket.
func TestLatencyHistSmallSamplesMatchReference(t *testing.T) {
	for v := sim.Time(-2); v < 512; v++ {
		h := NewLatencyHist()
		h.Add(v)
		want := latBucketRef(v)
		if len(h.buckets) != want+1 || h.buckets[want] != 1 {
			t.Fatalf("Add(%d) filed the sample in bucket %d, reference %d", v, len(h.buckets)-1, want)
		}
	}
}

// refLatencyHist is the original map-backed histogram, retained as the
// property-pin reference for the dense implementation.
type refLatencyHist struct {
	buckets map[int]int64
	count   int64
	max     sim.Time
}

func (h *refLatencyHist) add(t sim.Time) {
	h.buckets[latBucketRef(t)]++
	h.count++
	if t > h.max {
		h.max = t
	}
}

func (h *refLatencyHist) percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for b := range h.buckets {
		keys = append(keys, b)
	}
	sort.Ints(keys)
	target := int64(math.Ceil(p * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target >= h.count {
		return h.max
	}
	var cum int64
	for _, b := range keys {
		cum += h.buckets[b]
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

// TestPropertyLatencyHistMatchesMapReference streams random latency
// mixes through the dense histogram and the retained map reference and
// requires identical counts, maxima and percentile curves.
func TestPropertyLatencyHistMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHist()
		ref := &refLatencyHist{buckets: make(map[int]int64)}
		for i := 0; i < 50000; i++ {
			var v sim.Time
			switch rng.Intn(4) {
			case 0:
				v = sim.Time(rng.Int63n(int64(200 * sim.Microsecond)))
			case 1:
				v = sim.Time(rng.Int63n(int64(20 * sim.Millisecond)))
			case 2:
				v = sim.Time(rng.Int63n(int64(5 * sim.Second)))
			default:
				v = sim.Time(rng.Int63())
			}
			h.Add(v)
			ref.add(v)
		}
		if h.Count() != ref.count || h.Max() != ref.max {
			t.Fatalf("seed %d: count/max diverged from reference", seed)
		}
		for p := 0.0; p <= 1.0; p += 0.001 {
			if got, want := h.Percentile(p), ref.percentile(p); got != want {
				t.Fatalf("seed %d: P%.3f = %v, reference %v", seed, p, got, want)
			}
		}
	}
}

func TestLatencyHistEqual(t *testing.T) {
	a, b := NewLatencyHist(), NewLatencyHist()
	if !a.Equal(b) {
		t.Fatal("empty histograms must be equal")
	}
	for _, v := range []sim.Time{1, 5, 5, 1000, 123456} {
		a.Add(v)
		b.Add(v)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identical sample streams must compare equal")
	}
	b.Add(7)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("diverged histograms compared equal")
	}
	// Same count, different placement.
	c, d := NewLatencyHist(), NewLatencyHist()
	c.Add(10)
	d.Add(20)
	if c.Equal(d) {
		t.Fatal("different samples compared equal")
	}
}
