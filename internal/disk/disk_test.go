package disk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"craid/internal/sim"
)

// runOne submits a request and runs the engine to completion, returning
// the response time.
func runOne(t *testing.T, eng *sim.Engine, d Device, op Op, block, count int64) sim.Time {
	t.Helper()
	start := eng.Now()
	var done sim.Time
	completed := false
	d.Submit(&Request{Op: op, Block: block, Count: count, Done: func(at sim.Time) {
		done = at
		completed = true
	}})
	eng.Run()
	if !completed {
		t.Fatalf("request (%v %d+%d) never completed", op, block, count)
	}
	return done - start
}

func TestNullDeviceInstant(t *testing.T) {
	eng := sim.NewEngine()
	d := NewNullDevice(eng, "null0", 1000)
	if rt := runOne(t, eng, d, OpRead, 0, 8); rt != 0 {
		t.Errorf("null device read took %v, want 0", rt)
	}
	if rt := runOne(t, eng, d, OpWrite, 100, 8); rt != 0 {
		t.Errorf("null device write took %v, want 0", rt)
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BlocksRead != 8 || s.BlocksWrite != 8 {
		t.Errorf("stats = %+v, want 1 read/1 write of 8 blocks", s)
	}
}

func TestNullDeviceRangeCheck(t *testing.T) {
	eng := sim.NewEngine()
	d := NewNullDevice(eng, "null0", 1000)
	for _, bad := range []Request{
		{Op: OpRead, Block: -1, Count: 1},
		{Op: OpRead, Block: 0, Count: 0},
		{Op: OpRead, Block: 999, Count: 2},
	} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-range request %+v did not panic", bad)
				}
			}()
			d.Submit(&bad)
		}()
	}
}

func smallHDDConfig(name string) HDDConfig {
	cfg := CheetahConfig(name)
	cfg.CapacityBlocks = 1 << 20 // 4 GiB keeps geometry tests fast
	return cfg
}

func TestHDDGeometryCoversCapacity(t *testing.T) {
	eng := sim.NewEngine()
	d := NewHDD(eng, CheetahConfig("hdd0"))
	var total int64
	for _, z := range d.zones {
		total += z.cylinders * z.blocksPCyl
	}
	if total < d.cfg.CapacityBlocks {
		t.Fatalf("zones cover %d blocks, capacity is %d", total, d.cfg.CapacityBlocks)
	}
	// Every block must locate inside a zone, with sane coordinates.
	for _, b := range []int64{0, 1, d.cfg.CapacityBlocks / 2, d.cfg.CapacityBlocks - 1} {
		p := d.locate(b)
		if p.zn == nil || p.cyl < 0 || p.cyl >= d.totalCyls || p.pos < 0 || p.pos >= p.zn.blocksPT {
			t.Errorf("locate(%d) = zone %v cyl %d pos %d: out of bounds", b, p.zn, p.cyl, p.pos)
		}
	}
}

// TestHDDTinyDiskGeometry is the regression test for disks with fewer
// cylinders than cfg.Zones (a heavily scaled-down testbed: ~1,150
// blocks is 3 cylinders against 16 zones). The one-cylinder outer zones
// used to overshoot the capacity, the last zone came out with a
// negative cylinder count, and the first I/O near the end of the disk
// panicked the engine with a negative service time.
func TestHDDTinyDiskGeometry(t *testing.T) {
	capacities := []int64{1, 2, 71, 487, 488, 489, 1150, 3000, 7000, 7720, 7721, 10000}
	for c := int64(100); c < 9000; c += 173 {
		capacities = append(capacities, c)
	}
	for _, capacity := range capacities {
		cfg := CheetahConfig("tiny")
		cfg.CapacityBlocks = capacity
		eng := sim.NewEngine()
		d := NewHDD(eng, cfg)
		var next, cyls int64
		for i, z := range d.zones {
			if z.cylinders < 1 || z.firstBlock != next || z.firstCyl != cyls {
				t.Fatalf("capacity %d: zone %d = %+v, want >=1 cylinders starting at block %d, cylinder %d",
					capacity, i, z, next, cyls)
			}
			next += z.cylinders * z.blocksPCyl
			cyls += z.cylinders
		}
		if last := d.zones[len(d.zones)-1]; last.firstBlock >= capacity || next < capacity || cyls != d.totalCyls {
			t.Fatalf("capacity %d: %d zones cover [0,%d) over %d cylinders (totalCyls %d), last starts at %d",
				capacity, len(d.zones), next, cyls, d.totalCyls, last.firstBlock)
		}
		for _, b := range []int64{capacity - 1, 0, capacity / 2, capacity - 1} {
			if got := runOne(t, eng, d, OpRead, b, 1); got <= 0 {
				t.Fatalf("capacity %d: read of block %d took %v", capacity, b, got)
			}
		}
	}
}

func TestHDDZonedDensityDecreasesInward(t *testing.T) {
	eng := sim.NewEngine()
	d := NewHDD(eng, CheetahConfig("hdd0"))
	for i := 1; i < len(d.zones); i++ {
		if d.zones[i].blocksPT > d.zones[i-1].blocksPT {
			t.Fatalf("zone %d denser (%d) than zone %d (%d): density must fall inward",
				i, d.zones[i].blocksPT, i-1, d.zones[i-1].blocksPT)
		}
	}
}

func TestHDDSeekCurveCalibration(t *testing.T) {
	eng := sim.NewEngine()
	cfg := CheetahConfig("hdd0")
	d := NewHDD(eng, cfg)
	if got := d.seekTime(0); got != 0 {
		t.Errorf("seek(0) = %v, want 0", got)
	}
	if got := d.seekTime(1); got < cfg.TrackToTrack/2 || got > 2*cfg.TrackToTrack {
		t.Errorf("seek(1) = %v, want near track-to-track %v", got, cfg.TrackToTrack)
	}
	third := d.totalCyls / 3
	if got := d.seekTime(third); got < cfg.AvgSeek*9/10 || got > cfg.AvgSeek*11/10 {
		t.Errorf("seek(N/3) = %v, want ~%v", got, cfg.AvgSeek)
	}
	if got := d.seekTime(d.totalCyls - 1); got < cfg.FullSeek*9/10 || got > cfg.FullSeek*11/10 {
		t.Errorf("seek(full) = %v, want ~%v", got, cfg.FullSeek)
	}
	// Monotonic in distance.
	prev := sim.Time(-1)
	for _, dist := range []int64{1, 10, 100, 1000, 10000, d.totalCyls - 1} {
		got := d.seekTime(dist)
		if got < prev {
			t.Errorf("seek(%d) = %v < seek at shorter distance %v", dist, got, prev)
		}
		prev = got
	}
}

func TestHDDReadLatencyWithinMechanicalBounds(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	cfg.CacheSegments = 0 // no cache: pure mechanical service
	d := NewHDD(eng, cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		block := rng.Int63n(cfg.CapacityBlocks - 8)
		rt := runOne(t, eng, d, OpRead, block, 8)
		min := cfg.ControllerOver
		max := cfg.FullSeek + d.revTime + d.revTime + cfg.ControllerOver + 10*cfg.HeadSwitch
		if rt < min || rt > max {
			t.Fatalf("read %d: response %v outside [%v, %v]", i, rt, min, max)
		}
	}
}

func TestHDDSequentialFasterThanRandom(t *testing.T) {
	// Uses the realistic configuration (read-ahead cache on): without
	// read-ahead, back-to-back sequential requests miss the rotational
	// window and pay a full revolution — the very effect the on-disk
	// cache exists to hide.
	cfg := smallHDDConfig("hdd0")

	// Sequential reads of 64 blocks each.
	engSeq := sim.NewEngine()
	seq := NewHDD(engSeq, cfg)
	var seqTotal sim.Time
	for i := int64(0); i < 100; i++ {
		seqTotal += runOne(t, engSeq, seq, OpRead, i*64, 64)
	}

	// Random reads of 64 blocks each.
	engRnd := sim.NewEngine()
	rnd := NewHDD(engRnd, cfg)
	rng := rand.New(rand.NewSource(11))
	var rndTotal sim.Time
	for i := 0; i < 100; i++ {
		rndTotal += runOne(t, engRnd, rnd, OpRead, rng.Int63n(cfg.CapacityBlocks-64), 64)
	}

	if seqTotal*2 >= rndTotal {
		t.Fatalf("sequential (%v) not clearly faster than random (%v)", seqTotal, rndTotal)
	}
}

func TestHDDReadCacheHit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	d := NewHDD(eng, cfg)
	// First read misses and installs a read-ahead segment.
	first := runOne(t, eng, d, OpRead, 1000, 8)
	// Re-read and read-ahead hit must cost only controller overhead.
	again := runOne(t, eng, d, OpRead, 1000, 8)
	ahead := runOne(t, eng, d, OpRead, 1016, 8)
	if again != cfg.ControllerOver {
		t.Errorf("cache re-read took %v, want %v", again, cfg.ControllerOver)
	}
	if ahead != cfg.ControllerOver {
		t.Errorf("read-ahead hit took %v, want %v", ahead, cfg.ControllerOver)
	}
	if first <= again {
		t.Errorf("miss (%v) not slower than hit (%v)", first, again)
	}
	s := d.Stats()
	if s.CacheHits != 2 || s.CacheMisses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 2/1", s.CacheHits, s.CacheMisses)
	}
}

func TestHDDWriteBackAbsorbsSmallWrites(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	d := NewHDD(eng, cfg)
	rt := runOne(t, eng, d, OpWrite, 5000, 8)
	if rt != cfg.ControllerOver {
		t.Errorf("write-back absorbed write took %v, want %v", rt, cfg.ControllerOver)
	}
}

func TestHDDWriteCacheFillsAndStalls(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	cfg.WriteCacheBlocks = 64
	d := NewHDD(eng, cfg)

	// Burst of scattered writes exceeding the cache forces at least one
	// write to wait for a destage (response > overhead).
	rng := rand.New(rand.NewSource(3))
	var times []sim.Time
	pending := 0
	for i := 0; i < 32; i++ {
		block := rng.Int63n(cfg.CapacityBlocks - 8)
		pending++
		d.Submit(&Request{Op: OpWrite, Block: block, Count: 8, Done: func(at sim.Time) {
			times = append(times, at)
			pending--
		}})
	}
	eng.Run()
	if pending != 0 {
		t.Fatalf("%d writes never completed", pending)
	}
	if len(times) != 32 {
		t.Fatalf("completed %d writes, want 32", len(times))
	}
	// The final completion must be later than a pure cache-absorb burst
	// would allow (32 * overhead), proving stalls occurred.
	last := times[len(times)-1]
	if last <= sim.Time(32)*cfg.ControllerOver {
		t.Errorf("burst finished at %v; expected stalls beyond %v",
			last, sim.Time(32)*cfg.ControllerOver)
	}
}

func TestHDDSchedulersAllComplete(t *testing.T) {
	cfg := smallHDDConfig("hdd0")
	eng := sim.NewEngine()
	d := NewHDD(eng, cfg)
	rng := rand.New(rand.NewSource(5))
	completed := 0
	for i := 0; i < 200; i++ {
		d.Submit(&Request{
			Op:    OpRead,
			Block: rng.Int63n(cfg.CapacityBlocks - 8),
			Count: 8,
			Done:  func(sim.Time) { completed++ },
		})
	}
	eng.Run()
	if completed != 200 {
		t.Errorf("completed %d/200", completed)
	}
}

// TestHDDLOOKServiceOrder pins the queue discipline on a scattered
// queue. The first request is dispatched alone; the other 99 queue up
// behind it and are served in one ascending sweep from where it left the
// head, then one descending sweep over what lay behind.
func TestHDDLOOKServiceOrder(t *testing.T) {
	cfg := smallHDDConfig("hdd0")
	cfg.CacheSegments = 0
	eng := sim.NewEngine()
	d := NewHDD(eng, cfg)
	rng := rand.New(rand.NewSource(9))
	var served []int64 // cylinders, in completion order
	for i := 0; i < 100; i++ {
		block := rng.Int63n(cfg.CapacityBlocks - 8)
		cyl := d.locate(block).cyl
		d.Submit(&Request{
			Op:    OpRead,
			Block: block,
			Count: 8,
			Done:  func(sim.Time) { served = append(served, cyl) },
		})
	}
	eng.Run()
	if len(served) != 100 {
		t.Fatalf("completed %d/100", len(served))
	}
	rest := served[1:]
	turn := 1
	for turn < len(rest) && rest[turn] >= rest[turn-1] {
		turn++
	}
	up, down := rest[:turn], rest[turn:]
	if len(up) < 10 || len(down) < 10 {
		t.Fatalf("sweeps of %d and %d requests: the queue was meant to straddle the head", len(up), len(down))
	}
	for i, cyl := range down {
		if i > 0 && cyl > down[i-1] {
			t.Fatalf("reverse sweep climbs from cylinder %d to %d (request %d of it): %v", down[i-1], cyl, i, served)
		}
		if cyl >= up[0] {
			t.Fatalf("cylinder %d was ahead of the head, yet left for the reverse sweep: %v", cyl, served)
		}
	}
}

func TestHDDQueueStats(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	d := NewHDD(eng, cfg)
	for i := 0; i < 10; i++ {
		if got := d.QueueDepth(); got != i {
			t.Fatalf("QueueDepth = %d before request %d, want %d (one in service, the rest queued)", got, i, i)
		}
		d.Submit(&Request{Op: OpRead, Block: int64(i) * 100000, Count: 8})
	}
	eng.Run()
	if got := d.QueueDepth(); got != 0 {
		t.Errorf("QueueDepth = %d once drained, want 0", got)
	}
	if s := d.Stats(); s.Reads != 10 {
		t.Errorf("Reads = %d, want 10", s.Reads)
	}
}

func TestSSDLatencyModel(t *testing.T) {
	eng := sim.NewEngine()
	cfg := MSRSSDConfig("ssd0")
	d := NewSSD(eng, cfg)
	// Single-block read: one page read + overhead.
	if rt := runOne(t, eng, d, OpRead, 0, 1); rt != cfg.ReadLatency+cfg.ControllerOver {
		t.Errorf("1-block read = %v, want %v", rt, cfg.ReadLatency+cfg.ControllerOver)
	}
	// Single-block write.
	if rt := runOne(t, eng, d, OpWrite, 1, 1); rt != cfg.WriteLatency+cfg.ControllerOver {
		t.Errorf("1-block write = %v, want %v", rt, cfg.WriteLatency+cfg.ControllerOver)
	}
	// A 4-block aligned read spreads over 4 channels: one page time.
	if rt := runOne(t, eng, d, OpRead, 4, 4); rt != cfg.ReadLatency+cfg.ControllerOver {
		t.Errorf("4-block striped read = %v, want %v (channel parallelism)",
			rt, cfg.ReadLatency+cfg.ControllerOver)
	}
	// 8 blocks on 4 channels: two page times.
	if rt := runOne(t, eng, d, OpRead, 8, 8); rt != 2*cfg.ReadLatency+cfg.ControllerOver {
		t.Errorf("8-block read = %v, want %v", rt, 2*cfg.ReadLatency+cfg.ControllerOver)
	}
}

func TestSSDReadsFasterThanHDD(t *testing.T) {
	engS := sim.NewEngine()
	ssd := NewSSD(engS, MSRSSDConfig("ssd0"))
	engH := sim.NewEngine()
	hcfg := smallHDDConfig("hdd0")
	hcfg.CacheSegments = 0
	hdd := NewHDD(engH, hcfg)

	rng := rand.New(rand.NewSource(13))
	var st, ht sim.Time
	for i := 0; i < 100; i++ {
		b := rng.Int63n(1 << 20)
		st += runOne(t, engS, ssd, OpRead, b, 8)
		ht += runOne(t, engH, hdd, OpRead, b, 8)
	}
	if st*10 >= ht {
		t.Errorf("SSD random reads (%v) not ≫ faster than HDD (%v)", st, ht)
	}
}

func TestSSDChannelContention(t *testing.T) {
	eng := sim.NewEngine()
	cfg := MSRSSDConfig("ssd0")
	d := NewSSD(eng, cfg)
	// Two simultaneous requests on the same channel serialize.
	var t1, t2 sim.Time
	d.Submit(&Request{Op: OpRead, Block: 0, Count: 1, Done: func(at sim.Time) { t1 = at }})
	d.Submit(&Request{Op: OpRead, Block: 4, Count: 1, Done: func(at sim.Time) { t2 = at }})
	eng.Run()
	if t2 != t1+cfg.ReadLatency {
		t.Errorf("same-channel requests: t1=%v t2=%v, want serialization by %v",
			t1, t2, cfg.ReadLatency)
	}
}

// TestSSDMatchesMD1 holds the SSD to a closed form that shares no code
// with it. An open Poisson stream of single-block reads at uniform random
// blocks splits into an independent Poisson stream per channel, and a
// channel is a FIFO server with a fixed page time D: an M/D/1 queue,
// whose mean wait is ρD/(2(1−ρ)) — 12.5 µs for the MSR model's 25 µs
// page reads at a per-channel load ρ of 0.5. A request waits for the
// time its response holds beyond its page read and the controller
// overhead.
func TestSSDMatchesMD1(t *testing.T) {
	const (
		n   = 400000
		rho = 0.5
	)
	eng := sim.NewEngine()
	cfg := MSRSSDConfig("ssd0")
	d := NewSSD(eng, cfg)
	rng := rand.New(rand.NewSource(1))
	meanGap := float64(cfg.ReadLatency) / (float64(cfg.Channels) * rho)
	// Sums of the arrival and completion instants: their difference is
	// the summed response time.
	var arrivals, completions sim.Time
	completed := 0
	r := &Request{Op: OpRead, Count: 1, Done: func(at sim.Time) { completions += at; completed++ }}
	// Each arrival schedules the next: the engine's queue is sorted, so n
	// arrivals scheduled up front would make every completion's insert
	// walk past them.
	submitted := 0
	var arrive func()
	arrive = func() {
		r.Block = rng.Int63n(cfg.CapacityBlocks)
		arrivals += eng.Now()
		d.Submit(r)
		if submitted++; submitted < n {
			eng.After(sim.Time(rng.ExpFloat64()*meanGap), arrive)
		}
	}
	arrive()
	eng.Run()
	if completed != n {
		t.Fatalf("%d of %d reads completed", completed, n)
	}
	wait := float64(completions-arrivals)/n - float64(cfg.ReadLatency+cfg.ControllerOver)
	want := rho * float64(cfg.ReadLatency) / (2 * (1 - rho))
	if math.Abs(wait-want) > 0.05*want {
		t.Errorf("mean wait %.2f µs at ρ = %g, M/D/1 says %.2f µs", wait/1e3, rho, want/1e3)
	}
}

// TestHDDMatchesClosedFormAtQueueDepthOne pins the HDD's mechanical
// service time against its closed form. A closed loop of single-block
// reads at uniform random blocks keeps one request at the drive, so every
// read pays the controller overhead, the seek from the cylinder of the
// read before, the rotational wait and one block's transfer, whose means
// over independent uniform blocks add up to
//
//	ControllerOver + E[seek] + half a revolution + E[transfer].
//
// Both expectations are computed here from the configuration, the zone
// table and the fitted seek coefficients, never by the model's own code:
// a block is uniform, so a cylinder is as likely as the blocks it holds.
// The read cache hits only when two reads land in one 256-block segment
// (a few dozen of 200000), which the 1% band absorbs.
func TestHDDMatchesClosedFormAtQueueDepthOne(t *testing.T) {
	const n = 200000
	eng := sim.NewEngine()
	cfg := CheetahConfig("hdd0")
	d := NewHDD(eng, cfg)
	rev := 60 * float64(sim.Second) / float64(cfg.RPM)

	// The cylinders as runs of equal probability: one per zone, with the
	// last zone's partly filled cylinder a run of its own.
	type run struct {
		c0, n int64
		p     float64 // of each cylinder
	}
	var runs []run
	total := float64(cfg.CapacityBlocks)
	var transfer float64
	for _, z := range d.zones {
		blocks := min(z.endBlock, cfg.CapacityBlocks) - z.firstBlock
		transfer += float64(blocks) / total * rev / float64(z.blocksPT)
		full := blocks / z.blocksPCyl
		runs = append(runs, run{z.firstCyl, full, float64(z.blocksPCyl) / total})
		if rest := blocks - full*z.blocksPCyl; rest > 0 {
			runs = append(runs, run{z.firstCyl + full, 1, float64(rest) / total})
		}
	}
	cyls := runs[len(runs)-1].c0 + runs[len(runs)-1].n
	seek := func(dist int64) float64 {
		if dist == 0 {
			return 0
		}
		t2t := float64(cfg.TrackToTrack)
		return max(t2t, t2t+d.seekB*math.Sqrt(float64(dist))+d.seekC*float64(dist))
	}
	// E[seek] over block-uniform pairs: for every pair of runs, each
	// distance c2-c1 is taken by as many cylinder pairs as the runs
	// overlap at that shift.
	var seekBlocks float64
	for _, a := range runs {
		for _, b := range runs {
			for delta := b.c0 - (a.c0 + a.n - 1); delta <= b.c0+b.n-1-a.c0; delta++ {
				pairs := min(a.c0+a.n+delta, b.c0+b.n) - max(a.c0+delta, b.c0)
				if pairs > 0 {
					seekBlocks += float64(pairs) * a.p * b.p * seek(max(delta, -delta))
				}
			}
		}
	}
	// The same over cylinder-uniform pairs, for the record: the
	// datasheet's AvgSeek is the seek at the mean distance, which the
	// concave curve puts above the mean seek.
	var seekCyls float64
	for dist := int64(1); dist < cyls; dist++ {
		seekCyls += 2 * float64(cyls-dist) / float64(cyls) / float64(cyls) * seek(dist)
	}
	want := float64(cfg.ControllerOver) + seekBlocks + rev/2 + transfer

	rng := rand.New(rand.NewSource(1))
	var sum, start sim.Time
	reads := 0
	r := &Request{Op: OpRead, Count: 1}
	r.Done = func(at sim.Time) {
		sum += at - start
		if reads++; reads < n {
			start, r.Block = at, rng.Int63n(cfg.CapacityBlocks)
			d.Submit(r)
		}
	}
	r.Block = rng.Int63n(cfg.CapacityBlocks)
	d.Submit(r)
	eng.Run()
	if reads != n {
		t.Fatalf("%d of %d reads completed", reads, n)
	}
	got := float64(sum) / n
	t.Logf("mean service %.1f µs, closed form %.1f µs (%+.2f%%); E[seek] %.3f ms over blocks, %.3f ms over cylinders, AvgSeek %v; %d cache hits",
		got/1e3, want/1e3, 100*(got-want)/want, seekBlocks/1e6, seekCyls/1e6, cfg.AvgSeek, d.stats.CacheHits)
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("mean service %.1f µs at queue depth 1, closed form %.1f µs", got/1e3, want/1e3)
	}
}

// TestHDDStalledWriteNotStranded is the regression test for a write
// stranded in the stall queue: (0,512) and (0,504) merge into one dirty
// range but count 1016 dirty blocks, so after that range destages the
// counter still reads 504 with nothing left to flush — and the 600-block
// write stalled behind it used to wait for a destage that never came.
func TestHDDStalledWriteNotStranded(t *testing.T) {
	eng := sim.NewEngine()
	d := NewHDD(eng, CheetahConfig("hdd0"))
	writes := [][2]int64{{100000, 8}, {0, 512}, {0, 504}, {200000, 600}}
	done := make([]bool, len(writes))
	for i, w := range writes {
		i := i
		d.Submit(&Request{Op: OpWrite, Block: w[0], Count: w[1],
			Done: func(sim.Time) { done[i] = true }})
	}
	if d.QueueDepth() != 1 {
		t.Fatalf("queue depth %d after the burst; the scenario needs exactly the last write stalled", d.QueueDepth())
	}
	eng.Run()
	for i, ok := range done {
		if !ok {
			t.Errorf("write %v never completed", writes[i])
		}
	}
	if d.QueueDepth() != 0 {
		t.Errorf("queue depth %d after the engine drained", d.QueueDepth())
	}
}

// Property: the device completes every request exactly once, through
// Done — reads and writes of every size up to twice the
// write cache (past it, a write bypasses the cache), overlapping on a
// small hot area so that dirty ranges merge, the cache (small or the
// Cheetah's) fills and writes stall, with one submission in eight
// drawing a transient error, and the disk failing and rejoining in the
// middle of some scripts — and holds nothing once the engine drains.
func TestPropertyHDDAlwaysCompletes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		cfg := smallHDDConfig("hdd0")
		if seed&1 == 1 {
			cfg.WriteCacheBlocks = 64
		}
		eng := sim.NewEngine()
		d := NewHDD(eng, cfg)
		rng := rand.New(rand.NewSource(seed))
		want := int(n%64) + 1
		done := make([]int, want)
		// Dead from just after one burst until just after the next: what
		// was queued drains, what arrives meanwhile is rejected.
		var down, up sim.Time = -1, -1
		if rng.Intn(2) == 1 {
			down = sim.Time(rng.Intn(3))*100*sim.Millisecond + sim.Millisecond
			up = down + 100*sim.Millisecond
		}
		for i := 0; i < want; i++ {
			errs := rng.Intn(8) == 0
			op := OpRead
			count := int64(rng.Intn(32) + 1)
			if rng.Intn(2) == 1 {
				op = OpWrite
				if rng.Intn(2) == 1 {
					count = int64(rng.Intn(2*cfg.WriteCacheBlocks) + 1)
				}
			}
			span := cfg.CapacityBlocks
			if rng.Intn(2) == 1 {
				span = 4 * int64(cfg.WriteCacheBlocks) // hot area: writes overlap
			}
			block := rng.Int63n(span - count)
			// Bursts: a few instants, so writes pile up faster than they destage.
			at := sim.Time(rng.Intn(4)) * 100 * sim.Millisecond
			eng.Schedule(at, func() {
				d.Submit(&Request{Op: op, Block: block, Count: count, Reject: at >= down && at < up, Err: errs,
					Done: func(sim.Time) { done[i]++ }})
			})
		}
		eng.Run()
		for i := range done {
			if done[i] != 1 {
				return false
			}
		}
		return d.QueueDepth() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestHDDLocateMatchesZoneScan pins the zone-table search against a
// plain scan of the zones, at every zone edge and at random blocks.
func TestHDDLocateMatchesZoneScan(t *testing.T) {
	for _, cfg := range []HDDConfig{CheetahConfig("big"), smallHDDConfig("small")} {
		d := NewHDD(sim.NewEngine(), cfg)
		blocks := []int64{0, cfg.CapacityBlocks - 1}
		for _, z := range d.zones {
			for _, b := range []int64{z.firstBlock - 1, z.firstBlock, z.firstBlock + 1} {
				if b >= 0 && b < cfg.CapacityBlocks {
					blocks = append(blocks, b)
				}
			}
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			blocks = append(blocks, rng.Int63n(cfg.CapacityBlocks))
		}
		for _, b := range blocks {
			var want *zone
			for i := range d.zones {
				if z := &d.zones[i]; b >= z.firstBlock && b < z.firstBlock+z.cylinders*z.blocksPCyl {
					want = z
				}
			}
			p := d.locate(b)
			rel := b - want.firstBlock
			if p.zn != want || p.cyl != want.firstCyl+rel/want.blocksPCyl || p.pos != rel%want.blocksPT || p.inCyl != rel%want.blocksPCyl {
				t.Fatalf("%s: locate(%d) = zone@%d cyl %d pos %d (%d in the cylinder), scan says zone@%d",
					cfg.Name, b, p.zn.firstBlock, p.cyl, p.pos, p.inCyl, want.firstBlock)
			}
		}
	}
}

// TestHDDHeadEndsAtLastBlock: after a media access the head sits on the
// cylinder of the access's last block, whether the access stays inside
// one zone or runs across a zone boundary.
func TestHDDHeadEndsAtLastBlock(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	cfg.CacheSegments = 0
	d := NewHDD(eng, cfg)
	edge := d.zones[1].firstBlock
	for _, acc := range [][2]int64{{edge - 4, 8}, {edge, 8}, {edge + 10, 1000}, {edge - 1000, 1000}, {edge - 1000, 1001}} {
		runOne(t, eng, d, OpRead, acc[0], acc[1])
		if want := d.locate(acc[0] + acc[1] - 1).cyl; d.curCyl != want {
			t.Errorf("read %d+%d left the head on cylinder %d, last block is on %d", acc[0], acc[1], d.curCyl, want)
		}
	}
}

// Property: device stats block counters equal the sum of submitted
// request sizes.
func TestPropertyStatsConservation(t *testing.T) {
	cfg := smallHDDConfig("hdd0")
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		d := NewHDD(eng, cfg)
		rng := rand.New(rand.NewSource(seed))
		var wantR, wantW int64
		for i := 0; i < 50; i++ {
			count := int64(rng.Intn(16) + 1)
			block := rng.Int63n(cfg.CapacityBlocks - count)
			if rng.Intn(2) == 0 {
				wantR += count
				d.Submit(&Request{Op: OpRead, Block: block, Count: count})
			} else {
				wantW += count
				d.Submit(&Request{Op: OpWrite, Block: block, Count: count})
			}
		}
		eng.Run()
		s := d.Stats()
		return s.BlocksRead == wantR && s.BlocksWrite == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHDDRandomReads(b *testing.B) {
	cfg := smallHDDConfig("hdd0")
	eng := sim.NewEngine()
	d := NewHDD(eng, cfg)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(&Request{Op: OpRead, Block: rng.Int63n(cfg.CapacityBlocks - 8), Count: 8})
		eng.Run()
	}
}

// rmwChain is one client of BenchmarkHDDArrayMix: it reads a block run
// on each of two drives, writes both back when the reads are in, and
// starts over when the writes are — the parity small-write cycle.
type rmwChain struct {
	mix         *arrayMix
	dev, block  [2]int64
	pending     int
	writing     bool
	completedFn func(sim.Time)
}

type arrayMix struct {
	devs   []*HDD
	cursor []int64 // per drive: where its sequential run has got to
	rng    *rand.Rand
	left   int // cycles still to start
}

func (c *rmwChain) start() {
	m := c.mix
	if m.left == 0 {
		return
	}
	m.left--
	c.dev[0] = m.rng.Int63n(int64(len(m.devs)))
	c.dev[1] = (c.dev[0] + 1 + m.rng.Int63n(int64(len(m.devs)-1))) % int64(len(m.devs))
	for i, dev := range c.dev {
		// Each drive is read in 8-block steps, so a miss's read-ahead
		// segment serves the next 31 reads; one access in 50 jumps.
		if m.rng.Intn(50) == 0 {
			m.cursor[dev] = m.rng.Int63n(m.devs[dev].CapacityBlocks() - 8)
		}
		c.block[i] = m.cursor[dev]
		m.cursor[dev] = (m.cursor[dev] + 8) % (m.devs[dev].CapacityBlocks() - 8)
	}
	c.issue(OpRead)
}

func (c *rmwChain) issue(op Op) {
	c.writing = op == OpWrite
	c.pending = 2
	for i, dev := range c.dev {
		c.mix.devs[dev].Submit(&Request{Op: op, Block: c.block[i], Count: 8, Done: c.completedFn})
	}
}

func (c *rmwChain) completed(sim.Time) {
	if c.pending--; c.pending > 0 {
		return
	}
	if c.writing {
		c.start()
	} else {
		c.issue(OpWrite)
	}
}

// BenchmarkHDDArrayMix is the traffic the array sends its drives: 50
// Cheetahs on one engine, about one request outstanding per drive, in
// read-modify-write cycles (read two drives, then write the same blocks
// back), about 95% of the reads inside a read-ahead segment. One op is
// one cycle: four device I/Os, and the destages the writes leave behind.
func BenchmarkHDDArrayMix(b *testing.B) {
	eng := sim.NewEngine()
	m := &arrayMix{devs: make([]*HDD, 50), cursor: make([]int64, 50), rng: rand.New(rand.NewSource(1))}
	for i := range m.devs {
		m.devs[i] = NewHDD(eng, CheetahConfig("hdd"))
		m.cursor[i] = m.rng.Int63n(m.devs[i].CapacityBlocks() - 8)
	}
	chains := make([]rmwChain, len(m.devs)/2)
	for i := range chains {
		chains[i].mix = m
		chains[i].completedFn = chains[i].completed
	}
	run := func(cycles int) {
		m.left = cycles
		for i := range chains {
			chains[i].start()
		}
		eng.Run()
	}
	run(20000) // warm: queues, pools and segment caches at their working size
	var hits, misses int64
	for _, d := range m.devs {
		hits, misses = hits-d.stats.CacheHits, misses-d.stats.CacheMisses
	}
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	for _, d := range m.devs {
		hits, misses = hits+d.stats.CacheHits, misses+d.stats.CacheMisses
	}
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
	}
}

func BenchmarkSSDRandomReads(b *testing.B) {
	cfg := MSRSSDConfig("ssd0")
	eng := sim.NewEngine()
	d := NewSSD(eng, cfg)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(&Request{Op: OpRead, Block: rng.Int63n(cfg.CapacityBlocks - 8), Count: 8})
		eng.Run()
	}
}
