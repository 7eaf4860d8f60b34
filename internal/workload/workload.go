// Package workload generates synthetic block traces calibrated to the
// seven real-world workloads of the CRAID paper's Table 1 (cello99,
// deasna, home02, webresearch, webusers, wdev, proj). The original
// traces are not redistributable; these generators reproduce the
// properties CRAID's behaviour actually depends on:
//
//   - total and unique read/write volumes (Table 1),
//   - the skewed block access-frequency distribution, parameterized by
//     the share of accesses landing on the top 20% of blocks (Table 1,
//     Fig. 1 top),
//   - long-term temporal locality: day-to-day working-set overlap
//     (Fig. 1 bottom), realized by a window sliding over the dataset,
//   - request-size and Poisson arrival structure.
//
// Mechanism. The dataset is U file-sized extents (256 KiB). A fixed
// modular bijection maps popularity ranks to dataset positions, so hot
// extents scatter uniformly over the address space (as they do on a
// real volume — the scattering CRAID's cache partition later undoes).
// Each day activates a contiguous position window that slides by
// (1-overlap)·W per day; accesses sample a global continuous-Zipf rank
// and reject positions outside the current window, except for a pinned
// hot core that stays active every day (the paper's persistent heavy
// hitters). Because the bijection spreads ranks evenly, the windowed
// distribution keeps the calibrated skew while the slide renews the
// working set at the target overlap rate. On top of the long-term
// structure, two short-term mechanisms mirror real traces: most
// accesses re-reference recently touched blocks (RecentProb, calibrated
// per trace to the paper's Table 2 hit ratios), and — in bursty mode —
// requests arrive in coherent bursts that are either sequential scans
// or random volleys.
package workload

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
)

// ExtentBlocks is the popularity granule: popularity is assigned to
// 64-block (256 KiB) extents — file-sized objects — so multi-request
// sequential streams mostly stay inside one coherent hot region and
// re-accesses replay in a consistent order.
const ExtentBlocks = 64

// pageBlocks is the alignment of request starts within an extent:
// accesses land on 32 KiB page boundaries, so repeated accesses to an
// object overlap consistently rather than at arbitrary offsets.
const pageBlocks = 8

// Params configures a generator. Volumes are decimal gigabytes, as in
// the paper's Table 1.
type Params struct {
	Name     string
	Seed     int64
	Duration sim.Time

	ReadGB        float64 // total read volume
	WriteGB       float64 // total write volume
	UniqueReadGB  float64 // distinct blocks read over the whole trace
	UniqueWriteGB float64 // distinct blocks written

	Top20Share   float64 // target share of accesses on top 20% blocks
	DailyOverlap float64 // target day-to-day working-set overlap

	// RecentProb is the probability that an access re-references a
	// recently accessed extent rather than sampling popularity afresh.
	// Storage traces are overwhelmingly re-referencing over short
	// horizons (the paper's tiny 0.1%-of-working-set cache partition
	// reaches 65-94% hit ratios); each preset carries the value that
	// reproduces its Table 2 hit ratio.
	RecentProb float64

	MeanReadBlocks  float64 // mean read request size in blocks
	MeanWriteBlocks float64 // mean write request size in blocks

	// Burstiness (all zero = smooth Poisson arrivals). When BurstMean
	// > 1, requests arrive in bursts of ~BurstMean requests spaced
	// BurstGap apart, with bursts themselves Poisson; SeqProb is the
	// probability that a request within a burst continues sequentially
	// from the previous one (scan-like streams). Total volume is
	// preserved. Use WithBursts for the experiments that study queueing
	// and sequentiality dynamics.
	BurstMean float64
	BurstGap  sim.Time
	SeqProb   float64
}

// WithBursts returns a copy configured for bursty, partially
// sequential arrivals.
func (p Params) WithBursts(mean float64, gap sim.Time, seqProb float64) Params {
	p.BurstMean = mean
	p.BurstGap = gap
	p.SeqProb = seqProb
	return p
}

// Scaled returns a copy with all volumes multiplied by f, preserving
// skew, overlap and duration. Use it to shrink paper-scale workloads
// to test scale.
func (p Params) Scaled(f float64) Params {
	p.ReadGB *= f
	p.WriteGB *= f
	p.UniqueReadGB *= f
	p.UniqueWriteGB *= f
	return p
}

// WithDuration returns a copy lasting d, keeping volumes (the request
// rate changes accordingly).
func (p Params) WithDuration(d sim.Time) Params {
	p.Duration = d
	return p
}

const week = 168 * sim.Hour

// Presets returns the calibrated parameters for all seven paper
// workloads, in the paper's order.
func Presets() []Params {
	return []Params{
		{Name: "cello99", Seed: 99, Duration: week,
			ReadGB: 73.73, WriteGB: 129.91, UniqueReadGB: 10.52, UniqueWriteGB: 10.92,
			Top20Share: 0.6577, DailyOverlap: 0.65, RecentProb: 0.65,
			MeanReadBlocks: 8, MeanWriteBlocks: 4},
		{Name: "deasna", Seed: 2002, Duration: week,
			ReadGB: 672.4, WriteGB: 231.57, UniqueReadGB: 23.32, UniqueWriteGB: 45.45,
			Top20Share: 0.8688, DailyOverlap: 0.30, RecentProb: 0.90,
			MeanReadBlocks: 8, MeanWriteBlocks: 8},
		{Name: "home02", Seed: 2001, Duration: week,
			ReadGB: 269.29, WriteGB: 66.35, UniqueReadGB: 9.07, UniqueWriteGB: 4.49,
			Top20Share: 0.6136, DailyOverlap: 0.70, RecentProb: 0.94,
			MeanReadBlocks: 8, MeanWriteBlocks: 4},
		{Name: "webresearch", Seed: 2009, Duration: week,
			ReadGB: 0, WriteGB: 3.37, UniqueReadGB: 0, UniqueWriteGB: 0.51,
			Top20Share: 0.5133, DailyOverlap: 0.60, RecentProb: 0.82,
			MeanReadBlocks: 8, MeanWriteBlocks: 4},
		{Name: "webusers", Seed: 2010, Duration: week,
			ReadGB: 1.16, WriteGB: 6.85, UniqueReadGB: 0.45, UniqueWriteGB: 0.50,
			Top20Share: 0.5617, DailyOverlap: 0.60, RecentProb: 0.81,
			MeanReadBlocks: 8, MeanWriteBlocks: 4},
		{Name: "wdev", Seed: 2007, Duration: week,
			ReadGB: 2.76, WriteGB: 8.77, UniqueReadGB: 0.2, UniqueWriteGB: 0.42,
			Top20Share: 0.7244, DailyOverlap: 0.75, RecentProb: 0.91,
			MeanReadBlocks: 8, MeanWriteBlocks: 4},
		{Name: "proj", Seed: 2008, Duration: week,
			ReadGB: 2152.74, WriteGB: 367.05, UniqueReadGB: 1238.86, UniqueWriteGB: 168.88,
			Top20Share: 0.5764, DailyOverlap: 0.55, RecentProb: 0.76,
			MeanReadBlocks: 16, MeanWriteBlocks: 8},
	}
}

// Preset returns the named paper workload.
func Preset(name string) (Params, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown preset %q", name)
}

// PresetNames lists the preset workload names in paper order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// Generator produces the trace as a streaming trace.Reader;
// deterministic for a given Params (including Seed).
type Generator struct {
	p   Params
	rng *rand.Rand

	extents  int64 // U: dataset size in extents
	window   int64 // W: big per-day window (extents)
	winRead  int64 // per-op nested window sizes
	winWrite int64
	shift    int64 // daily slide in extents

	rankToPos int64 // multiplier of the rank→position bijection
	scatter   int64 // multiplier of the position→LBA scatter bijection
	pinned    int64 // hottest ranks always active (persistent heavy hitters)

	sampler *zipfSampler
	pRead   float64
	meanGap float64 // mean inter-arrival in ns (of bursts, when bursty)

	now       sim.Time
	done      bool
	burstLeft int64
	burstSeq  bool  // current burst is a sequential scan
	lastEnd   int64 // previous request's end, -1 when invalid

	// Recency ring of recently accessed extents (LBA extent indices).
	recent     [512]int64
	recentHead int
	recentLen  int
}

// blocksOf converts decimal GB to 4 KiB blocks.
func blocksOf(gbs float64) int64 {
	return int64(gbs * 1e9 / disk.BlockSize)
}

// Validate reports parameters New cannot generate from: with less than
// one block of traffic the request rate is zero, the mean inter-arrival
// gap infinite and the first timestamp overflows.
func (p Params) Validate() error {
	if blocksOf(p.ReadGB)+blocksOf(p.WriteGB) <= 0 {
		return fmt.Errorf("workload: %s: %.3g GB of traffic is less than one block", p.Name, p.ReadGB+p.WriteGB)
	}
	return nil
}

// New builds a generator for p, which must pass Validate.
func New(p Params) *Generator {
	if p.Duration <= 0 {
		p.Duration = week
	}
	if p.MeanReadBlocks <= 0 {
		p.MeanReadBlocks = 8
	}
	if p.MeanWriteBlocks <= 0 {
		p.MeanWriteBlocks = 4
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{p: p, rng: rand.New(rand.NewSource(p.Seed))}

	uniqR := blocksOf(p.UniqueReadGB) / ExtentBlocks
	uniqW := blocksOf(p.UniqueWriteGB) / ExtentBlocks
	uniqBig := uniqR
	if uniqW > uniqBig {
		uniqBig = uniqW
	}
	if uniqBig < 16 {
		uniqBig = 16
	}

	days := float64(p.Duration) / float64(24*sim.Hour)
	if days < 1 {
		days = 1
	}
	ov := p.DailyOverlap
	if ov < 0 {
		ov = 0
	}
	if ov > 0.99 {
		ov = 0.99
	}
	// Weekly unique = W + (days-1)·(1-ov)·W  ⇒  solve for W.
	g.window = int64(float64(uniqBig) / (1 + (days-1)*(1-ov)))
	if g.window < 8 {
		g.window = 8
	}
	g.shift = int64(float64(g.window) * (1 - ov))
	g.extents = g.window + int64(days-1)*g.shift + 1
	if g.extents < g.window {
		g.extents = g.window
	}

	g.winRead = nestedWindow(uniqR, g.window, g.shift, days, uniqBig)
	g.winWrite = nestedWindow(uniqW, g.window, g.shift, days, uniqBig)

	g.rankToPos = coprimeNear(g.extents, 0.6180339887)
	g.scatter = coprimeNear(g.extents, 0.7548776662)

	// The paper observes that "really popular" data stays hot across
	// days even when the broad working set churns (deasna's top-20%
	// overlap far exceeds its all-blocks overlap). Model this as a
	// pinned hot core: the hottest 5% of the window is active every
	// day, regardless of the window position.
	g.pinned = g.window / 20
	if g.pinned < 1 {
		g.pinned = 1
	}

	// Acceptance correction: non-core ranks are only usable while their
	// position is inside the sliding window (probability ≈ W/U), while
	// the pinned core is always accepted. Calibration accounts for the
	// resulting relative boost of the head.
	accept := float64(g.window) / float64(g.extents)
	g.sampler = newZipfSampler(g.extents, calibrateZipf(g.extents, p.Top20Share, g.pinned, accept))

	readBlocks := blocksOf(p.ReadGB)
	writeBlocks := blocksOf(p.WriteGB)
	nRead := float64(readBlocks) / p.MeanReadBlocks
	nWrite := float64(writeBlocks) / p.MeanWriteBlocks
	total := nRead + nWrite
	g.pRead = nRead / total
	g.meanGap = float64(p.Duration) / total
	if p.BurstMean > 1 {
		// Bursts arrive Poisson; each carries ~BurstMean requests, so
		// the burst rate shrinks accordingly and volume is preserved.
		g.meanGap *= p.BurstMean
	}
	g.lastEnd = -1
	return g
}

// nestedWindow sizes a per-op window so the op's weekly unique volume
// comes out right given the global daily shift.
func nestedWindow(uniq, window, shift int64, days float64, uniqBig int64) int64 {
	if uniq <= 0 {
		return 0
	}
	if uniq >= uniqBig {
		return window
	}
	w := uniq - int64((days-1))*shift
	if sevenths := uniq / int64(days); w < sevenths {
		w = sevenths // windows disjoint day to day: unique = days·W
	}
	if w > window {
		w = window
	}
	if w < 1 {
		w = 1
	}
	return w
}

// coprimeNear returns a multiplier coprime with n near frac·n, giving a
// well-spread modular bijection x → x·m mod n.
func coprimeNear(n int64, frac float64) int64 {
	m := int64(frac * float64(n))
	if m < 1 {
		m = 1
	}
	for gcd(m, n) != 1 {
		m++
	}
	return m
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DatasetBlocks returns the size of the generated dataset's address
// space in blocks; simulators size their volumes to hold it.
func (g *Generator) DatasetBlocks() int64 { return g.extents * ExtentBlocks }

// Params returns the generator's configuration.
func (g *Generator) Params() Params { return g.p }

// Next implements trace.Reader.
func (g *Generator) Next() (trace.Record, error) {
	if g.done {
		return trace.Record{}, io.EOF
	}
	if g.p.BurstMean > 1 && g.burstLeft > 0 {
		g.burstLeft--
		g.now += sim.Time(g.rng.ExpFloat64() * float64(g.p.BurstGap))
	} else {
		g.now += sim.Time(g.rng.ExpFloat64() * g.meanGap)
		if g.p.BurstMean > 1 {
			// Geometric burst length with the configured mean. A burst
			// is coherent: either one sequential scan or a volley of
			// independent accesses — mixing the two inside one burst
			// would interleave unrelated insertions into every stream.
			g.burstLeft = int64(g.rng.ExpFloat64()*(g.p.BurstMean-1) + 0.5)
			g.burstSeq = g.rng.Float64() < g.p.SeqProb
			g.lastEnd = -1 // streams do not continue across bursts
		}
	}
	if g.now >= g.p.Duration {
		g.done = true
		return trace.Record{}, io.EOF
	}

	op := disk.OpWrite
	winOp := g.winWrite
	mean := g.p.MeanWriteBlocks
	if g.rng.Float64() < g.pRead {
		op = disk.OpRead
		winOp = g.winRead
		mean = g.p.MeanReadBlocks
	}
	if winOp <= 0 { // degenerate preset (e.g. webresearch reads)
		winOp = g.window
	}

	// Sequential continuation within a scan burst: the stream walks the
	// address space from the previous request's end.
	if g.lastEnd >= 0 && g.burstSeq {
		count := g.requestSize(mean)
		start := g.lastEnd
		if start+count > g.DatasetBlocks() {
			start = 0
		}
		g.lastEnd = start + count
		return trace.Record{Time: g.now, Op: op, Block: start, Count: count}, nil
	}

	// Short-horizon re-reference: most storage accesses revisit the
	// very blocks touched moments ago (geometric bias to the most
	// recent request; the same pages, not merely the same region).
	if g.recentLen > 0 && g.rng.Float64() < g.p.RecentProb {
		back := int(g.rng.ExpFloat64() * 8)
		if back >= g.recentLen {
			back = g.recentLen - 1
		}
		idx := (g.recentHead - 1 - back + 2*len(g.recent)) % len(g.recent)
		start := g.recent[idx]
		g.pushRecent(start)
		count := g.requestSize(mean)
		if start+count > g.DatasetBlocks() {
			start = g.DatasetBlocks() - count
		}
		g.lastEnd = start + count
		return trace.Record{Time: g.now, Op: op, Block: start, Count: count}, nil
	}

	day := int64(g.now / (24 * sim.Hour))
	offset := (day * g.shift) % g.extents

	// Sample a global popularity rank; accept if its position falls in
	// the op's active window. The bijection spreads ranks uniformly, so
	// acceptance keeps the Zipf shape.
	var pos int64
	found := false
	for try := 0; try < 96; try++ {
		rank := g.sampler.sample(g.rng)
		x := (rank * g.rankToPos) % g.extents
		if rank < g.pinned {
			pos, found = x, true // hot core: always active
			break
		}
		rel := x - offset
		if rel < 0 {
			rel += g.extents
		}
		if rel < winOp {
			pos, found = x, true
			break
		}
	}
	if !found {
		// Extremely unlikely fallback: uniform in-window position.
		pos = (offset + g.rng.Int63n(winOp)) % g.extents
	}

	lbaExtent := (pos * g.scatter) % g.extents
	rec := g.makeRecord(op, lbaExtent, mean)
	g.pushRecent(rec.Block)
	return rec, nil
}

// pushRecent records an accessed request start in the recency ring.
func (g *Generator) pushRecent(start int64) {
	g.recent[g.recentHead] = start
	g.recentHead = (g.recentHead + 1) % len(g.recent)
	if g.recentLen < len(g.recent) {
		g.recentLen++
	}
}

// makeRecord builds a request into the given extent. The start is
// page-aligned within the extent: repeated accesses to an object
// overlap and replay in a consistent order (files are read page-wise
// from aligned offsets) — the regularity CRAID's sequential re-layout
// exploits.
func (g *Generator) makeRecord(op disk.Op, lbaExtent int64, mean float64) trace.Record {
	count := g.requestSize(mean)
	start := lbaExtent*ExtentBlocks + pageBlocks*g.rng.Int63n(ExtentBlocks/pageBlocks)
	if start+count > g.DatasetBlocks() {
		start = g.DatasetBlocks() - count
	}
	g.lastEnd = start + count
	return trace.Record{Time: g.now, Op: op, Block: start, Count: count}
}

// requestSize draws a request length with the given mean, capped at 64
// blocks (256 KiB), minimum 1.
func (g *Generator) requestSize(mean float64) int64 {
	if mean <= 1 {
		return 1
	}
	n := 1 + int64(g.rng.ExpFloat64()*(mean-1)+0.5)
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// --- continuous Zipf over ranks 1..n ---

// zipfSampler draws ranks with P(rank≈x) ∝ x^(-s) using the continuous
// inverse CDF, supporting any s ≥ 0 (math/rand's Zipf requires s > 1,
// but storage skews typically calibrate to s ≈ 0.5–1.2).
type zipfSampler struct {
	n     int64
	s     float64
	total float64
}

func newZipfSampler(n int64, s float64) *zipfSampler {
	return &zipfSampler{n: n, s: s, total: powerIntegral(1, float64(n+1), s)}
}

// powerIntegral computes ∫a..b x^-s dx.
func powerIntegral(a, b, s float64) float64 {
	if math.Abs(1-s) < 1e-9 {
		return math.Log(b / a)
	}
	return (math.Pow(b, 1-s) - math.Pow(a, 1-s)) / (1 - s)
}

// invPowerIntegral solves ∫1..x t^-s dt = v for x.
func invPowerIntegral(v, s float64) float64 {
	if math.Abs(1-s) < 1e-9 {
		return math.Exp(v)
	}
	return math.Pow(1+v*(1-s), 1/(1-s))
}

// sample returns a rank in [0, n).
func (z *zipfSampler) sample(rng *rand.Rand) int64 {
	v := rng.Float64() * z.total
	x := int64(invPowerIntegral(v, z.s)) - 1
	if x < 0 {
		x = 0
	}
	if x >= z.n {
		x = z.n - 1
	}
	return x
}

// calibrateZipf finds the exponent s such that the top 20% of n ranks
// receive the target share of accesses, by bisection on the monotone
// continuous share function. pinned ranks are always accepted while
// the rest are accepted with probability q (the sliding-window
// residency), which boosts the head's effective weight by 1/q.
func calibrateZipf(n int64, target float64, pinned int64, q float64) float64 {
	if q <= 0 || q > 1 {
		q = 1
	}
	if pinned < 0 {
		pinned = 0
	}
	if pinned > n {
		pinned = n
	}
	if target >= 0.999 {
		target = 0.999
	}
	nf, kf := float64(n), float64(pinned)
	share := func(s float64) float64 {
		core := powerIntegral(1, kf+1, s)
		top := core + q*(powerIntegral(1, 0.2*nf+1, s)-core)
		all := core + q*(powerIntegral(1, nf+1, s)-core)
		return top / all
	}
	if share(0) >= target {
		return 0
	}
	lo, hi := 0.0, 4.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if share(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
