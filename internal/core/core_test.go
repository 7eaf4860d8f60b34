package core

import (
	"math/rand"
	"testing"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// nullArray builds an Array of n instant devices with the given
// capacity in blocks.
func nullArray(eng *sim.Engine, n int, capacity int64) *Array {
	devs := make([]disk.Device, n)
	for i := range devs {
		devs[i] = disk.NewNullDevice(eng, "null", capacity)
	}
	return NewArray(eng, devs)
}

// ioTotals sums read/write request counts over all array devices.
func ioTotals(a *Array) (reads, writes int64) {
	for i := 0; i < a.Devices(); i++ {
		s := a.Device(i).Stats()
		reads += s.Reads
		writes += s.Writes
	}
	return
}

// submitAndRun pushes one record through vol and drains the engine.
func submitAndRun(eng *sim.Engine, vol Volume, op disk.Op, block, count int64) sim.Time {
	var rt sim.Time = -1
	start := eng.Now()
	vol.Submit(trace.Record{Time: start, Op: op, Block: block, Count: count},
		func(at sim.Time) { rt = at - start })
	eng.Run()
	if rt < 0 {
		panic("request did not complete")
	}
	return rt
}

func TestRAIDControllerReadIOCount(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	layout := raid.NewRAID5(4, 4, 1024, 4)
	ctl := NewRAIDController(arr, layout, []int{0, 1, 2, 3}, 0)

	submitAndRun(eng, ctl, disk.OpRead, 0, 4) // one stripe unit
	r, w := ioTotals(arr)
	if r != 1 || w != 0 {
		t.Errorf("unit read issued %d reads %d writes, want 1/0", r, w)
	}
	if ctl.ReadLatency().Count() != 1 {
		t.Errorf("read latency samples = %d, want 1", ctl.ReadLatency().Count())
	}
}

func TestRAIDControllerSmallWriteRMW(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	layout := raid.NewRAID5(4, 4, 1024, 4)
	ctl := NewRAIDController(arr, layout, []int{0, 1, 2, 3}, 0)

	submitAndRun(eng, ctl, disk.OpWrite, 0, 4)
	r, w := ioTotals(arr)
	// Read-modify-write: read old data + old parity, write data + parity.
	if r != 2 || w != 2 {
		t.Errorf("small write issued %d reads %d writes, want 2/2", r, w)
	}
}

func TestRAID0WriteNoParity(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	layout := raid.NewRAID0(4, 1024, 4)
	ctl := NewRAIDController(arr, layout, []int{0, 1, 2, 3}, 0)
	submitAndRun(eng, ctl, disk.OpWrite, 0, 4)
	r, w := ioTotals(arr)
	if r != 0 || w != 1 {
		t.Errorf("RAID-0 write issued %d reads %d writes, want 0/1", r, w)
	}
}

func TestRAIDControllerMultiExtentSpansDisks(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	layout := raid.NewRAID5(4, 4, 1024, 4)
	ctl := NewRAIDController(arr, layout, []int{0, 1, 2, 3}, 0)
	// 12 blocks = 3 stripe units on 3 different disks.
	submitAndRun(eng, ctl, disk.OpRead, 0, 12)
	busy := 0
	for i := 0; i < 4; i++ {
		if arr.Device(i).Stats().Reads > 0 {
			busy++
		}
	}
	if busy != 3 {
		t.Errorf("12-block read touched %d disks, want 3", busy)
	}
}

// newTestCRAID builds a 4-disk shared-cache CRAID on null devices.
// P_C: RAID-5(4 disks, unit 4) with cachePerDisk blocks per disk;
// P_A: RAID-5 behind it.
func newTestCRAID(eng *sim.Engine, cachePerDisk int64) (*CRAID, *Array) {
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  4,
		StripeUnit:   4,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
	return c, arr
}

func TestCRAIDReadMissServedFromArchiveAndCopied(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	submitAndRun(eng, c, disk.OpRead, 100, 1)
	r, w := ioTotals(arr)
	// 1 P_A read (client) + P_C copy-in RMW (2 reads + 2 writes).
	if r != 3 || w != 2 {
		t.Errorf("read miss issued %d reads %d writes, want 3/2", r, w)
	}
	st := c.Stats()
	if st.ReadBlocks != 1 || st.ReadHits != 0 || st.CopyIns != 1 {
		t.Errorf("stats = %+v, want 1 access, 0 hits, 1 copy-in", st)
	}
}

func TestCRAIDReadHitRedirectsToCache(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	submitAndRun(eng, c, disk.OpRead, 100, 1) // miss + copy
	r0, w0 := ioTotals(arr)
	submitAndRun(eng, c, disk.OpRead, 100, 1) // hit
	r1, w1 := ioTotals(arr)
	if r1-r0 != 1 || w1-w0 != 0 {
		t.Errorf("read hit issued %d reads %d writes, want 1/0", r1-r0, w1-w0)
	}
	if c.Stats().ReadHits != 1 {
		t.Errorf("ReadHits = %d, want 1", c.Stats().ReadHits)
	}
}

func TestCRAIDWriteAlwaysToCache(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	// Write miss: allocate in P_C, RMW parity there. No P_A traffic.
	submitAndRun(eng, c, disk.OpWrite, 200, 1)
	r, w := ioTotals(arr)
	if r != 2 || w != 2 {
		t.Errorf("write miss issued %d reads %d writes, want 2/2 (P_C RMW only)", r, w)
	}
	// Write hit: same cost.
	submitAndRun(eng, c, disk.OpWrite, 200, 1)
	r2, w2 := ioTotals(arr)
	if r2-r != 2 || w2-w != 2 {
		t.Errorf("write hit issued %d/%d, want 2/2", r2-r, w2-w)
	}
	if c.Stats().WriteHits != 1 || c.Stats().WriteBlocks != 2 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

// newTinyCRAID builds a CRAID whose P_C holds exactly 3·rows data
// blocks (stripe unit 1 over 4 disks).
func newTinyCRAID(eng *sim.Engine, rows int64) (*CRAID, *Array) {
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 4096, 1)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: rows,
		ParityGroup:  4,
		StripeUnit:   1,
	}, true, disks, 0, paLayout, disks, rows)
	return c, arr
}

func TestCRAIDDirtyEvictionWritesBack(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTinyCRAID(eng, 1) // 3 data blocks
	if c.CacheDataBlocks() != 3 {
		t.Fatalf("cache data blocks = %d, want 3", c.CacheDataBlocks())
	}
	// Fill with dirty blocks, then overflow.
	for i := int64(0); i < 3; i++ {
		submitAndRun(eng, c, disk.OpWrite, 100+i, 1)
	}
	r0, w0 := ioTotals(arr)
	submitAndRun(eng, c, disk.OpWrite, 500, 1) // forces a dirty eviction
	r1, w1 := ioTotals(arr)
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyEvictions != 1 {
		t.Fatalf("evictions = %d dirty = %d, want 1/1", st.Evictions, st.DirtyEvictions)
	}
	// Eviction adds: 1 P_C read + P_A RMW (2R+2W); the insert itself
	// adds the usual P_C RMW (2R+2W).
	if r1-r0 != 5 || w1-w0 != 4 {
		t.Errorf("dirty eviction cost %d reads %d writes, want 5/4", r1-r0, w1-w0)
	}
	if st.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", st.Writebacks)
	}
}

func TestCRAIDCleanEvictionIsFree(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTinyCRAID(eng, 1) // 3 data blocks
	// Fill with clean copies via read misses.
	for i := int64(0); i < 3; i++ {
		submitAndRun(eng, c, disk.OpRead, 100+i, 1)
	}
	r0, w0 := ioTotals(arr)
	submitAndRun(eng, c, disk.OpRead, 500, 1) // evicts a clean block
	r1, w1 := ioTotals(arr)
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyEvictions != 0 {
		t.Fatalf("evictions = %d dirty = %d, want 1/0", st.Evictions, st.DirtyEvictions)
	}
	// Only the miss (1 read) + copy-in (2R+2W): no write-back traffic.
	if r1-r0 != 3 || w1-w0 != 2 {
		t.Errorf("clean eviction cost %d reads %d writes, want 3/2", r1-r0, w1-w0)
	}
}

func TestCRAIDWLRUPrefersCleanVictims(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTinyCRAID(eng, 2) // 6 data blocks; WLRU window = 3
	// One dirty block at the LRU position, then clean blocks.
	submitAndRun(eng, c, disk.OpWrite, 10, 1) // dirty, least recent
	for b := int64(20); b < 70; b += 10 {
		submitAndRun(eng, c, disk.OpRead, b, 1) // clean
	}
	// Cache is full (6 entries). The next miss must evict a clean
	// block even though the dirty one is least recently used.
	submitAndRun(eng, c, disk.OpRead, 99, 1)
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.DirtyEvictions != 0 {
		t.Error("WLRU evicted the dirty LRU block despite clean candidates in window")
	}
}

func TestCRAIDMultiBlockRunsCoalesce(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	// 4-block write miss: slots allocated consecutively → single P_C
	// RMW on one stripe unit: 2 reads + 2 writes.
	submitAndRun(eng, c, disk.OpWrite, 100, 4)
	r, w := ioTotals(arr)
	if r != 2 || w != 2 {
		t.Errorf("4-block write issued %d reads %d writes, want 2/2 (coalesced)", r, w)
	}
	// Re-read all 4: contiguous cached run → 1 read.
	r0, _ := ioTotals(arr)
	submitAndRun(eng, c, disk.OpRead, 100, 4)
	r1, _ := ioTotals(arr)
	if r1-r0 != 1 {
		t.Errorf("cached 4-block read issued %d reads, want 1", r1-r0)
	}
}

func TestCRAIDExpandInvalidatesAndUsesNewDisks(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	// Populate: 2 dirty + 2 clean.
	submitAndRun(eng, c, disk.OpWrite, 10, 2)
	submitAndRun(eng, c, disk.OpRead, 100, 2)

	newDevs := []disk.Device{
		disk.NewNullDevice(eng, "new4", 100000),
		disk.NewNullDevice(eng, "new5", 100000),
	}
	st := c.Expand(newDevs, false, nil)
	eng.Run()
	if st.DirtyWriteback != 2 {
		t.Errorf("DirtyWriteback = %d, want 2", st.DirtyWriteback)
	}
	if st.Invalidated != 4 {
		t.Errorf("Invalidated = %d, want 4", st.Invalidated)
	}
	if arr.Devices() != 6 {
		t.Fatalf("array has %d devices, want 6", arr.Devices())
	}

	// The cache partition now spans 6 disks; filling it must touch the
	// new devices immediately.
	for i := int64(0); i < 60; i++ {
		submitAndRun(eng, c, disk.OpWrite, 1000+i, 1)
	}
	for i := 4; i < 6; i++ {
		if arr.Device(i).Stats().Writes == 0 {
			t.Errorf("new device %d received no writes after expansion", i)
		}
	}
	checkInvariants(t, c)
}

func TestCRAIDExpandDedicatedCacheKeepsGeometry(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 6, 100000) // 4 HDD archive + 2 "SSD" cache
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c := mustCRAID(arr, Config{CachePerDisk: 64, ParityGroup: 2, StripeUnit: 4},
		false, []int{4, 5}, 0, paLayout, []int{0, 1, 2, 3}, 0)
	before := c.CacheDataBlocks()
	c.Expand([]disk.Device{disk.NewNullDevice(eng, "new", 100000)}, false, nil)
	eng.Run()
	if c.CacheDataBlocks() != before {
		t.Errorf("dedicated cache resized on expansion: %d → %d", before, c.CacheDataBlocks())
	}
}

func TestCRAIDTablePolicyLockstep(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 8) // 6 data blocks
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		op := disk.OpRead
		if rng.Intn(2) == 1 {
			op = disk.OpWrite
		}
		block := rng.Int63n(200)
		count := rng.Int63n(3) + 1
		submitAndRun(eng, c, op, block, count)
		checkInvariants(t, c)
	}
}

func TestReplayDrivesVolume(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 100000)
	layout := raid.NewRAID5(4, 4, 4096, 4)
	ctl := NewRAIDController(arr, layout, []int{0, 1, 2, 3}, 0)
	records := []trace.Record{
		{Time: 0, Op: disk.OpRead, Block: 0, Count: 4},
		{Time: sim.Millisecond, Op: disk.OpWrite, Block: 100, Count: 2},
		{Time: 2 * sim.Millisecond, Op: disk.OpRead, Block: 50, Count: 8},
	}
	st, err := Replay(eng, ctl, trace.NewSlice(records))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 {
		t.Errorf("replayed %d records, want 3", st.Records)
	}
	if got := ctl.ReadLatency().Count() + ctl.WriteLatency().Count(); got != 3 {
		t.Errorf("latency samples = %d, want 3", got)
	}
	if eng.Now() < 2*sim.Millisecond {
		t.Errorf("engine time %v, want >= 2ms (records at their times)", eng.Now())
	}
}

func TestCRAIDMappingBytesGrows(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	if c.MappingBytes() != 0 {
		t.Error("fresh CRAID has nonzero mapping memory")
	}
	submitAndRun(eng, c, disk.OpWrite, 0, 8)
	if c.MappingBytes() == 0 {
		t.Error("mapping memory did not grow with insertions")
	}
}

func TestJoinZeroBranches(t *testing.T) {
	fired := false
	j := NewArray(sim.NewEngine(), nil).newJoin(func(sim.Time) { fired = true })
	j.seal(42)
	if !fired {
		t.Error("empty join did not fire on seal")
	}
	if j.last != 42 {
		t.Errorf("join completion time = %v, want seal time 42", j.last)
	}
}

func TestJoinWaitsForAllBranches(t *testing.T) {
	var at sim.Time
	j := NewArray(sim.NewEngine(), nil).newJoin(func(t sim.Time) { at = t })
	b1 := j.branch()
	b2 := j.branch()
	j.seal(0)
	b1(10)
	if at != 0 {
		t.Fatal("join fired before all branches completed")
	}
	b2(30)
	if at != 30 {
		t.Errorf("join fired at %v, want 30 (latest branch)", at)
	}
}
