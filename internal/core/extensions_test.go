package core

import (
	"bytes"
	"reflect"
	"testing"

	"craid/internal/disk"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
)

// newLevelCRAID builds a 6-disk shared-cache CRAID on null devices with
// the given cache-partition redundancy level.
func newLevelCRAID(eng *sim.Engine, level PCLevel) (*CRAID, *Array) {
	arr := nullArray(eng, 6, 100000)
	disks := []int{0, 1, 2, 3, 4, 5}
	paLayout := raid.NewRAID5(6, 6, 4096, 4)
	c := mustCRAID(arr, Config{
		CachePerDisk: 64,
		ParityGroup:  6,
		StripeUnit:   4,
		Level:        level,
	}, true, disks, 0, paLayout, disks, 64)
	return c, arr
}

func TestPCLevelWriteCosts(t *testing.T) {
	// Write-miss parity cost per the redundancy level: RAID-0 writes
	// once; RAID-5 pays 2R+2W; RAID-6 pays 3R+3W (the §6 prediction).
	cases := []struct {
		level  PCLevel
		reads  int64
		writes int64
	}{
		{PCRaid0, 0, 1},
		{PCRaid5, 2, 2},
		{PCRaid6, 3, 3},
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		cr, arr := newLevelCRAID(eng, c.level)
		submitAndRun(eng, cr, disk.OpWrite, 100, 4)
		r, w := ioTotals(arr)
		if r != c.reads || w != c.writes {
			t.Errorf("%v write miss: %d reads %d writes, want %d/%d",
				c.level, r, w, c.reads, c.writes)
		}
	}
}

func TestPCLevelCapacities(t *testing.T) {
	// Same per-disk budget, different data capacity: RAID-0 > RAID-5 >
	// RAID-6.
	caps := map[PCLevel]int64{}
	for _, level := range []PCLevel{PCRaid0, PCRaid5, PCRaid6} {
		eng := sim.NewEngine()
		c, _ := newLevelCRAID(eng, level)
		caps[level] = c.CacheDataBlocks()
	}
	if !(caps[PCRaid0] > caps[PCRaid5] && caps[PCRaid5] > caps[PCRaid6]) {
		t.Errorf("capacity ordering wrong: %v", caps)
	}
}

func TestPCLevelString(t *testing.T) {
	if PCRaid0.String() != "RAID-0" || PCRaid5.String() != "RAID-5" || PCRaid6.String() != "RAID-6" {
		t.Error("PCLevel.String mismatch")
	}
}

func TestExpandRetainKeepsCachedState(t *testing.T) {
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	// Populate the cache: 2 dirty, 2 clean.
	submitAndRun(eng, c, disk.OpWrite, 10, 2)
	submitAndRun(eng, c, disk.OpRead, 100, 2)
	if c.mon.table.Len() != 4 {
		t.Fatalf("precondition: %d mappings, want 4", c.mon.table.Len())
	}

	r0, w0 := ioTotals(arr)
	st := c.Expand([]disk.Device{
		disk.NewNullDevice(eng, "new4", 100000),
		disk.NewNullDevice(eng, "new5", 100000),
	}, true, nil)
	eng.Run()

	if st.Migrated != 4 {
		t.Errorf("Migrated = %d, want 4 (all live blocks)", st.Migrated)
	}
	if st.DirtyWriteback != 0 {
		t.Errorf("DirtyWriteback = %d, want 0 (retained, not invalidated)", st.DirtyWriteback)
	}
	if c.mon.table.Len() != 4 || c.mon.policy.Len() != 4 {
		t.Errorf("mappings/policy = %d/%d after retain, want 4/4", c.mon.table.Len(), c.mon.policy.Len())
	}
	// Migration I/O happened: reads from old placement, parity writes
	// to the new one.
	r1, w1 := ioTotals(arr)
	if r1 == r0 || w1 == w0 {
		t.Error("retain expansion issued no migration I/O")
	}

	// Hits continue: re-reading the retained blocks is a cache hit.
	hits0 := c.Stats().ReadHits
	submitAndRun(eng, c, disk.OpRead, 10, 2)
	if c.Stats().ReadHits != hits0+2 {
		t.Errorf("retained blocks did not hit after expansion")
	}
	// Dirty state survived.
	m, ok := c.mon.table.Lookup(10)
	if !ok || !m.Dirty {
		t.Error("dirty flag lost across retain expansion")
	}
	checkInvariants(t, c)
}

func TestExpandRetainDedicatedCacheIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 6, 100000)
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c := mustCRAID(arr, Config{CachePerDisk: 64, ParityGroup: 2, StripeUnit: 4},
		false, []int{4, 5}, 0, paLayout, []int{0, 1, 2, 3}, 0)
	submitAndRun(eng, c, disk.OpWrite, 5, 1)
	st := c.Expand([]disk.Device{disk.NewNullDevice(eng, "new", 100000)}, true, nil)
	eng.Run()
	if st.Migrated != 0 {
		t.Errorf("dedicated cache migrated %d blocks, want 0", st.Migrated)
	}
	if c.mon.table.Len() != 1 {
		t.Error("dedicated cache lost mappings on expansion")
	}
}

// ioLog is what recordingSSDs saw: how many requests they accepted and
// the latest instant a write of theirs completed.
type ioLog struct {
	submitted int
	lastWrite sim.Time
}

// recordingSSD is a timed device that reports into log. Embedding the
// interface hides the SSD's census join, so the SSD samples nothing;
// timing is the SSD's own.
type recordingSSD struct {
	disk.Device
	log *ioLog
}

func (d recordingSSD) Submit(r *disk.Request) {
	d.log.submitted++
	req, done, write := *r, r.Done, r.Op == disk.OpWrite
	req.Done = func(at sim.Time) {
		if write && at > d.log.lastWrite {
			d.log.lastWrite = at
		}
		if done != nil {
			done(at)
		}
	}
	d.Device.Submit(&req)
}

func recordingSSDs(eng *sim.Engine, log *ioLog, n int) []disk.Device {
	devs := make([]disk.Device, n)
	for i := range devs {
		devs[i] = recordingSSD{disk.NewSSD(eng, disk.MSRSSDConfig("ssd")), log}
	}
	return devs
}

// expandDrain builds a 4-SSD shared-cache CRAID, applies populate,
// expands it by two SSDs and reports the call instant, the instants
// done was told, and what the devices did from the call on.
func expandDrain(t *testing.T, retain bool, populate func(*sim.Engine, *CRAID)) (call sim.Time, told []sim.Time, st ExpandStats, log *ioLog) {
	t.Helper()
	eng := sim.NewEngine()
	log = &ioLog{}
	arr := NewArray(eng, recordingSSDs(eng, log, 4))
	disks := []int{0, 1, 2, 3}
	c := mustCRAID(arr, Config{CachePerDisk: 64, ParityGroup: 4, StripeUnit: 4},
		true, disks, 0, raid.NewRAID5(4, 4, 4096, 4), disks, 64)
	populate(eng, c)
	*log = ioLog{}
	call = eng.Now()
	st = c.Expand(recordingSSDs(eng, log, 2), retain, func(at sim.Time) { told = append(told, at) })
	eng.Run()
	if len(told) != 1 {
		t.Fatalf("done told %d times, want once", len(told))
	}
	checkInvariants(t, c)
	checkDrained(t, arr)
	return call, told, st, log
}

func populateDirty(eng *sim.Engine, c *CRAID) {
	submitAndRun(eng, c, disk.OpWrite, 10, 2)
	submitAndRun(eng, c, disk.OpWrite, 300, 5)
	submitAndRun(eng, c, disk.OpRead, 100, 2)
}

// TestExpandDoneAtLastWritebackWrite: an invalidating Expand of a cache
// holding dirty blocks drains when the last write-back write lands on
// P_A, strictly after the call.
func TestExpandDoneAtLastWritebackWrite(t *testing.T) {
	call, told, st, log := expandDrain(t, false, populateDirty)
	if st.DirtyWriteback != 7 || log.submitted == 0 {
		t.Fatalf("wrote back %d blocks in %d requests, want 7 blocks", st.DirtyWriteback, log.submitted)
	}
	if told[0] <= call || told[0] != log.lastWrite {
		t.Errorf("done at %v; call at %v, last write-back write completed at %v", told[0], call, log.lastWrite)
	}
}

// TestExpandDoneAtCallWhenClean: with nothing dirty, an invalidating
// Expand submits no I/O and drains at the call instant.
func TestExpandDoneAtCallWhenClean(t *testing.T) {
	call, told, st, log := expandDrain(t, false, func(eng *sim.Engine, c *CRAID) {
		submitAndRun(eng, c, disk.OpRead, 100, 2)
	})
	if st.Invalidated != 2 || st.DirtyWriteback != 0 {
		t.Fatalf("stats %+v, want 2 clean mappings dropped", st)
	}
	if log.submitted != 0 || told[0] != call {
		t.Errorf("done at %v after %d requests; want the call instant %v and none", told[0], log.submitted, call)
	}
}

// TestExpandRetainDoneAtLastMigrationWrite: a retaining Expand drains
// when the last migrated block is written to P_C's new geometry.
func TestExpandRetainDoneAtLastMigrationWrite(t *testing.T) {
	call, told, st, log := expandDrain(t, true, populateDirty)
	if st.Migrated != 9 || st.DirtyWriteback != 0 {
		t.Fatalf("stats %+v, want 9 blocks migrated and none written back", st)
	}
	if told[0] <= call || told[0] != log.lastWrite {
		t.Errorf("done at %v; call at %v, last migration write completed at %v", told[0], call, log.lastWrite)
	}
}

// TestExpandInvalidateThenCrashRecoversDirtySet: an invalidating Expand
// writes back every dirty translation and drops it, from the log too. A
// crash right after it recovers nothing; a crash after more traffic
// recovers exactly the dirty set the table holds, not translations the
// upgrade already wrote back onto slots other blocks hold by then.
func TestExpandInvalidateThenCrashRecoversDirtySet(t *testing.T) {
	for _, later := range []bool{false, true} {
		eng := sim.NewEngine()
		c, _ := newTestCRAID(eng, 64)
		log := keepImage(c)
		replayAll(t, eng, c, randomWorkload(23, 2000, 12000))
		if len(c.mon.table.DirtyMappings()) == 0 {
			t.Fatal("precondition: the workload left nothing dirty")
		}
		st := c.Expand([]disk.Device{disk.NewNullDevice(eng, "new", 100000)}, false, nil)
		eng.Run()
		if st.DirtyWriteback == 0 {
			t.Fatal("the expansion wrote nothing back")
		}
		if later {
			recs := randomWorkload(29, 2000, 12000)
			for i := range recs {
				recs[i].Time += eng.Now() + sim.Millisecond
			}
			replayAll(t, eng, c, recs)
		}
		want := c.mon.table.DirtyMappings()
		n, err := c.CrashRestart(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatalf("later=%v: %v", later, err)
		}
		if !later && n != 0 {
			t.Fatalf("crash right after the expansion recovered %d mappings, want 0", n)
		}
		if got := c.mon.table.DirtyMappings(); n != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("later=%v: recovered %d mappings, the table held %d dirty ones at the crash", later, n, len(want))
		}
		checkInvariants(t, c)
	}
}

func TestCRAIDRecoverRestoresDirtyMappings(t *testing.T) {
	// First life: write some blocks (dirty), read others (clean).
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	log := keepImage(c)
	submitAndRun(eng, c, disk.OpWrite, 10, 3) // dirty
	submitAndRun(eng, c, disk.OpRead, 100, 2) // clean
	wantDirty := c.mon.table.DirtyMappings()
	if len(wantDirty) != 3 {
		t.Fatalf("precondition: %d dirty mappings, want 3", len(wantDirty))
	}

	// Crash; second life recovers from the log.
	eng2 := sim.NewEngine()
	c2, arr2 := newTestCRAID(eng2, 64)
	n, err := c2.CrashRestart(log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recovered %d mappings, want 3 (dirty only)", n)
	}
	// Clean entries were invalidated, dirty ones are resident and
	// redirect to P_C.
	if _, ok := c2.mon.table.Lookup(100); ok {
		t.Error("clean mapping survived the crash")
	}
	r0, _ := ioTotals(arr2)
	submitAndRun(eng2, c2, disk.OpRead, 10, 3)
	r1, _ := ioTotals(arr2)
	if c2.Stats().ReadHits != 3 {
		t.Errorf("recovered blocks did not hit: hits=%d", c2.Stats().ReadHits)
	}
	if r1-r0 != 1 {
		t.Errorf("recovered read issued %d device reads, want 1 (from P_C)", r1-r0)
	}
	// Allocator must not hand out recovered slots: new insertions get
	// fresh slots.
	submitAndRun(eng2, c2, disk.OpWrite, 500, 1)
	m, _ := c2.mon.table.Lookup(500)
	for _, d := range wantDirty {
		if m.Cache == d.Cache {
			t.Errorf("allocator reused recovered slot %d", m.Cache)
		}
	}
	checkInvariants(t, c2)
}

func TestCRAIDRecoverRejectsOversizedSlot(t *testing.T) {
	eng := sim.NewEngine()
	big, _ := newTestCRAID(eng, 4096) // large P_C
	log := keepImage(big)
	// Fill enough to use high slot numbers.
	for i := int64(0); i < 300; i++ {
		submitAndRun(eng, big, disk.OpWrite, i*10, 1)
	}
	// Recover into a much smaller P_C: slots beyond capacity must be
	// detected rather than silently mis-addressed.
	eng2 := sim.NewEngine()
	small, _ := newTinyCRAID(eng2, 2)
	if _, err := small.CrashRestart(log); err == nil {
		t.Error("oversized logged slot not rejected")
	}

	// The log is outside input: images no controller would have written
	// are rejected too, before anything is reinstated.
	for name, ms := range map[string][]mapcache.Mapping{
		"negative slot":       {{Orig: 10, Cache: -5}},
		"slot claimed twice":  {{Orig: 10, Cache: 3}, {Orig: 20, Cache: 3}},
		"block beyond volume": {{Orig: 1 << 40, Cache: 3}},
	} {
		t.Run(name, func(t *testing.T) {
			var img bytes.Buffer
			w := mapcache.New()
			w.SetLog(&img)
			for _, m := range ms {
				m.Dirty = true
				w.Insert(m)
			}
			c, _ := newTestCRAID(sim.NewEngine(), 64)
			if n, err := c.CrashRestart(bytes.NewReader(img.Bytes())); err == nil {
				t.Errorf("CrashRestart accepted the image (%d mappings)", n)
			}
			if c.mon.table.Len() != 0 {
				t.Errorf("%d mappings reinstated from a rejected image", c.mon.table.Len())
			}
			checkInvariants(t, c)
		})
	}
}
