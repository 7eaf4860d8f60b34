package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// newTestCRAID6 is the double-fault rig: a 6-disk shared-cache CRAID
// whose cache and archive partitions are both RAID-6, so two
// overlapping erasures stay within the parity budget.
func newTestCRAID6(eng *sim.Engine, cachePerDisk int64) (*CRAID, *Array) {
	arr := nullArray(eng, 6, 100000)
	disks := []int{0, 1, 2, 3, 4, 5}
	paLayout := raid.NewRAID6(6, 6, 4096, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  6,
		StripeUnit:   4,
		Level:        PCRaid6,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
	return c, arr
}

// TestDoubleFaultScenarioDeterministic is the compound-failure
// scenario: a second disk dies while the first one's rebuild is
// walking, a crash-restart tears the rebuild down mid-walk, and a
// second rebuild overlaps the restarted first. RAID-6 keeps the double
// erasure within budget, so nothing is lost and the walker re-plans
// (deeper decode) instead of aborting; the invariants hold afterwards
// and a second run reproduces the outcome exactly.
func TestDoubleFaultScenarioDeterministic(t *testing.T) {
	const spec = "seed=9;fail:1@4ms;rebuild:1@6ms,rate=64;fail:4@9ms;crash@30ms;rebuild:4@40ms,rate=64"
	recs := randomWorkload(13, 2500, 12000)
	faults, _ := replayFaultTwice(t, newTestCRAID6, recs, spec)
	if faults.Failures != 2 || faults.Restarts != 1 {
		t.Fatalf("plan did not exercise the compound fabric: %+v", faults)
	}
	if faults.RebuildRestarts == 0 {
		t.Fatalf("crash did not restart the active rebuild: %+v", faults)
	}
	if faults.LostExtents != 0 || faults.RebuildLostRows != 0 {
		t.Fatalf("RAID-6 double fault lost data: %+v", faults)
	}
}

// TestStormScenarioDeterministic runs a crash-restart storm plus a
// transient window on one device: every crash fires, the window
// injects, the invariants hold afterwards and a second run reproduces
// the outcome exactly.
func TestStormScenarioDeterministic(t *testing.T) {
	const spec = "seed=9;transient:1@2ms-30ms,rate=0.05,lat=2;storm:crash@10ms,n=3,every=8ms"
	recs := randomWorkload(11, 3000, 12000)
	faults, _ := replayFaultTwice(t, newTestCRAID, recs, spec)
	if faults.Restarts != 3 {
		t.Fatalf("storm fired %d restarts, want 3: %+v", faults.Restarts, faults)
	}
	if faults.Transients == 0 {
		t.Fatalf("the transient window injected nothing: %+v", faults)
	}
}

// TestExpandUnderLoadScenarioDeterministic runs a mid-replay retain
// upgrade followed by the death and rebuild of one of the devices the
// upgrade added: the upgrade migrates, the failure rebuilds, nothing is
// lost, the invariants hold afterwards and a second run reproduces the
// outcome exactly.
func TestExpandUnderLoadScenarioDeterministic(t *testing.T) {
	const spec = "seed=9;expand@6ms,disks=2,retain;fail:4@12ms;rebuild:4@16ms,rate=64"
	recs := randomWorkload(17, 3000, 12000)
	faults, devs := replayFaultTwice(t, newTestCRAID, recs, spec)
	if faults.Upgrades != 1 || faults.ExpandMigrated == 0 {
		t.Fatalf("retain upgrade did not migrate: %+v", faults)
	}
	if faults.Failures != 1 || faults.RebuildRows == 0 {
		t.Fatalf("post-expand failure did not rebuild: %+v", faults)
	}
	if faults.LostExtents != 0 {
		t.Fatalf("expansion scenario lost extents: %+v", faults)
	}
	if len(devs) != 6 {
		t.Fatalf("array holds %d devices, want 6 after the upgrade", len(devs))
	}
}

// TestRebuildDoubleFaultRAID6RePlansAroundSecondErasure pins the
// mid-rebuild re-plan against a brute-force reference on a quiet
// array: the rebuild's batch schedule is exact (null devices, paced
// starts), so the reference walks the batch start times, decides per
// batch how many peers survive the second erasure, and predicts
// PeerReads and the rebuild's completion instant to the nanosecond.
func TestRebuildDoubleFaultRAID6RePlansAroundSecondErasure(t *testing.T) {
	const (
		deadA   = 1
		deadB   = 4
		rate    = 64.0
		tFail   = 1 * sim.Millisecond
		tBuild  = 2 * sim.Millisecond
		tSecond = 5 * sim.Millisecond
	)
	eng := sim.NewEngine()
	arr := nullArray(eng, 6, 10000)
	lay := raid.NewRAID6(6, 6, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4, 5}, 0)
	rt := installPlan(t, arr, ctl,
		"seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;fail:4@5ms")

	rows := lay.BlocksPerDisk() / lay.StripeUnitBlocks()
	peers := int64(len(lay.DiskPeers(deadA, nil)))
	// Brute-force schedule walk: batch k starts at tBuild + k*pace (the
	// per-batch service time on null devices is just the decode charge,
	// well under the pace), reads one unit run from every peer alive at
	// its start, and solves one or two erasures accordingly.
	var wantPeer, remaining int64 = 0, rows
	start := tBuild
	pace := sim.Time(float64(int64(rebuildBatchRows)*lay.StripeUnitBlocks()*disk.BlockSize) * 1000 / rate)
	for remaining > 0 {
		batchRows := int64(rebuildBatchRows)
		if remaining < batchRows {
			batchRows = remaining
		}
		remaining -= batchRows
		missing := int64(1)
		if start >= tSecond {
			missing = 2
		}
		wantPeer += peers - (missing - 1)
		// The next step — the one that notices the walk is done and
		// finishes the rebuild — is paced off this batch's start.
		start += pace
	}
	wantEnd := start

	st := rt.Stats()
	if st.RebuildRows != rows || st.RebuildLostRows != 0 {
		t.Fatalf("rebuild covered %d rows (lost %d), want all %d", st.RebuildRows, st.RebuildLostRows, rows)
	}
	if st.PeerReads != wantPeer {
		t.Fatalf("rebuild issued %d peer reads, brute-force reference wants %d", st.PeerReads, wantPeer)
	}
	if st.RebuildEnd != wantEnd {
		t.Fatalf("rebuild finished at %v, reference wants %v", st.RebuildEnd, wantEnd)
	}
	// The rebuilt device rejoined; the un-rebuilt second casualty did
	// not, and its blocks still reconstruct (within RAID-6's budget).
	if s := arr.Device(deadA).Stats(); s.Writes == 0 {
		t.Fatal("spare received no rebuild writes")
	}
	for b := int64(0); b < lay.DataBlocks(); b++ {
		if lay.Locate(b).Disk == deadB {
			if got := submitAndRun(eng, ctl, disk.OpRead, b, 1); got == 0 {
				t.Fatalf("block %d on the un-rebuilt disk served natively", b)
			}
			break
		}
	}
	if st.LostExtents != 0 {
		t.Fatalf("RAID-6 double fault lost %d extents", st.LostExtents)
	}
	checkDrained(t, arr)
}

// TestRebuildDoubleFaultRAID5AbortsAtParityBudget pins the loss
// boundary: on RAID-5 a second erasure mid-rebuild exceeds the parity
// budget exactly at the batch where it lands — the rows already walked
// stay counted, every remaining row counts lost, the walk aborts at
// that batch's start instant, and the device never rejoins.
func TestRebuildDoubleFaultRAID5AbortsAtParityBudget(t *testing.T) {
	const (
		deadA   = 1
		rate    = 64.0
		tBuild  = 2 * sim.Millisecond
		tSecond = 5 * sim.Millisecond
	)
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	lay := raid.NewRAID5(4, 4, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3}, 0)
	rt := installPlan(t, arr, ctl,
		"seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;fail:3@5ms")

	rows := lay.BlocksPerDisk() / lay.StripeUnitBlocks()
	pace := sim.Time(float64(int64(rebuildBatchRows)*lay.StripeUnitBlocks()*disk.BlockSize) * 1000 / rate)
	// Reference: batches starting before the second failure complete;
	// the first batch at or after it aborts the walk.
	var wantRows int64
	start := tBuild
	for start < tSecond && wantRows < rows {
		batch := int64(rebuildBatchRows)
		if rows-wantRows < batch {
			batch = rows - wantRows
		}
		wantRows += batch
		start += pace
	}
	st := rt.Stats()
	if st.RebuildRows != wantRows {
		t.Fatalf("rebuild walked %d rows before the abort, reference wants %d", st.RebuildRows, wantRows)
	}
	if want := rows - wantRows; st.RebuildLostRows != want {
		t.Fatalf("RebuildLostRows = %d, reference wants %d", st.RebuildLostRows, want)
	}
	if st.RebuildEnd != start {
		t.Fatalf("walk aborted at %v, reference wants %v", st.RebuildEnd, start)
	}
	// The device never rejoins: a read of one of its blocks is beyond
	// redundancy with the second disk also down.
	for b := int64(0); b < lay.DataBlocks(); b++ {
		if lay.Locate(b).Disk == deadA {
			err := ctl.Submit(trace.Record{Op: disk.OpRead, Block: b, Count: 1}, func(sim.Time) {})
			eng.Run()
			var lost *LostError
			if !errors.As(err, &lost) {
				t.Fatalf("post-abort read of block %d: err = %v, want LostError", b, err)
			}
			break
		}
	}
	checkDrained(t, arr)
}

// TestCrashDuringRebuildRestartsFromRowZero pins the crash/rebuild
// interaction exactly: the crash tears down the in-flight walk
// (stale-epoch chains complete as timing only) and relaunches it from
// row zero at the crash instant, so the total rows counted are the
// pre-crash progress plus one full re-walk, and the batch schedule
// after the crash is exact.
func TestCrashDuringRebuildRestartsFromRowZero(t *testing.T) {
	const (
		rate   = 64.0
		tBuild = 2 * sim.Millisecond
		tCrash = 5 * sim.Millisecond
	)
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 160, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: 64,
		ParityGroup:  4,
		StripeUnit:   4,
	}, true, disks, 0, paLayout, disks, 64)
	rt := installPlan(t, arr, c, "seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;crash@5ms")

	// Rows per walk: the cache partition's then the archive's.
	pcRows := c.pc.red.BlocksPerDisk() / c.pc.red.StripeUnitBlocks()
	paRows := paLayout.BlocksPerDisk() / paLayout.StripeUnitBlocks()
	total := pcRows + paRows
	pace := sim.Time(float64(int64(rebuildBatchRows)*4*disk.BlockSize) * 1000 / rate)
	// Pre-crash progress: batches whose completion (start + decode
	// charge, null devices) lands before the crash.
	var preRows, walked int64
	start := tBuild
	for walked < total {
		left := pcRows - walked
		if walked >= pcRows {
			left = total - walked
		}
		batch := int64(rebuildBatchRows)
		if left < batch {
			batch = left
		}
		done := start + reconPerBlock*sim.Time(batch*4)
		if done >= tCrash {
			break
		}
		preRows += batch
		walked += batch
		start += pace
	}
	st := rt.Stats()
	if st.Restarts != 1 || st.RebuildRestarts != 1 {
		t.Fatalf("crash/restart counters %+v, want 1 restart of 1 rebuild", st)
	}
	if want := preRows + total; st.RebuildRows != want {
		t.Fatalf("RebuildRows = %d, want %d pre-crash + %d re-walked", st.RebuildRows, preRows, total)
	}
	if st.RebuildLostRows != 0 {
		t.Fatalf("restarted rebuild lost %d rows", st.RebuildLostRows)
	}
	// The re-walk starts at the crash instant and paces batch starts
	// from there; the finishing step runs one pace after the last
	// batch's start: tCrash + batches*pace.
	batches := (pcRows + rebuildBatchRows - 1) / rebuildBatchRows
	batches += (paRows + rebuildBatchRows - 1) / rebuildBatchRows
	wantEnd := tCrash + sim.Time(batches)*pace
	if st.RebuildEnd != wantEnd {
		t.Fatalf("restarted rebuild finished at %v, reference wants %v", st.RebuildEnd, wantEnd)
	}
	// The device rejoined after the re-walk.
	if got := submitAndRun(eng, c, disk.OpRead, 0, 1); got != 0 {
		t.Fatalf("post-rebuild read took %v on instant devices", got)
	}
	checkInvariants(t, c)
}

// TestStormMatchesExplicitCrashes pins the storm generator as pure
// sugar: storm:crash@T,n=K,every=D produces the bit-identical run to
// spelling the K crashes out individually.
func TestStormMatchesExplicitCrashes(t *testing.T) {
	recs := randomWorkload(19, 2500, 12000)
	storm, stormFaults, stormDevs := replayFault(t, newTestCRAID, recs,
		"seed=5;storm:crash@10ms,n=3,every=7ms")
	flat, flatFaults, flatDevs := replayFault(t, newTestCRAID, recs,
		"seed=5;crash@10ms;crash@17ms;crash@24ms")
	if stormFaults.Restarts != 3 {
		t.Fatalf("storm fired %d restarts, want 3", stormFaults.Restarts)
	}
	if storm != flat || stormFaults != flatFaults || !reflect.DeepEqual(stormDevs, flatDevs) {
		t.Fatal("storm run diverged from the explicit-crash spelling")
	}
}

// TestCrashRestartStormLogRingMatchesSyncControl is the K-cycle
// crash/recover property: in a storm of crash-restart cycles over one
// trace, each cycle recovers from the controller's own dirty-log image,
// complete at every crash even when the controller dies K times.
func TestCrashRestartStormLogRingMatchesSyncControl(t *testing.T) {
	st := crashImagesComplete(t, newTestCRAID, randomWorkload(31, 4000, 12000), "seed=5;storm:crash@12ms,n=4,every=9ms")
	if st.Restarts != 4 || st.RecoveredMappings == 0 {
		t.Fatalf("%d restarts recovering %d mappings; the workload should have dirtied the cache", st.Restarts, st.RecoveredMappings)
	}
}

// TestInstallFaultsValidatesDeviceIndices pins the install-time width
// check (satellite: today an out-of-range device was a silent no-op
// deep in the disk layer) and the expand-requires-CRAID gate.
func TestInstallFaultsValidatesDeviceIndices(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	lay := raid.NewRAID5(4, 4, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3}, 0)

	plan, err := fault.ParsePlan("seed=1;fail:9@1ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallFaults(arr, ctl, plan); err == nil ||
		!strings.Contains(err.Error(), "device 9") {
		t.Fatalf("out-of-range device accepted at install: %v", err)
	}

	// With an expand event widening the array first, the same index is
	// legal — but expansion itself needs a CRAID volume.
	plan, err = fault.ParsePlan("seed=1;expand@1ms,disks=6;fail:9@2ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallFaults(arr, ctl, plan); err == nil ||
		!strings.Contains(err.Error(), "CRAID") {
		t.Fatalf("expand on a plain RAID controller accepted: %v", err)
	}
	// So does a crash: it recovers from the controller's mapping log.
	plan, err = fault.ParsePlan("seed=1;crash@1ms")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InstallFaults(arr, ctl, plan); err == nil ||
		!strings.Contains(err.Error(), "CRAID") {
		t.Fatalf("crash on a plain RAID controller accepted: %v", err)
	}
}

// TestExpandInvalidateMidReplayWritesBackDirty exercises the
// non-retain upgrade mid-replay: dirty mappings are written back, the
// cache restarts cold on the wider array, and the upgrade KPIs record
// the write-back volume.
func TestExpandInvalidateMidReplayWritesBackDirty(t *testing.T) {
	recs := randomWorkload(23, 3000, 12000)
	_, faults, devs := replayFault(t, newTestCRAID, recs, "seed=3;expand@8ms,disks=1")
	if faults.Upgrades != 1 {
		t.Fatalf("Upgrades = %d, want 1", faults.Upgrades)
	}
	if faults.ExpandInvalidated == 0 || faults.ExpandWriteback == 0 {
		t.Fatalf("invalidating upgrade moved nothing: %+v", faults)
	}
	if faults.ExpandMigrated != 0 {
		t.Fatalf("invalidating upgrade migrated %d blocks", faults.ExpandMigrated)
	}
	if len(devs) != 5 {
		t.Fatalf("array holds %d devices, want 5", len(devs))
	}
	// The new device joined the cache partition and received traffic.
	if devs[4].Reads+devs[4].Writes == 0 {
		t.Fatal("expansion device saw no I/O")
	}
	if faults.ExpandStart != 8*sim.Millisecond {
		t.Fatalf("ExpandStart = %v, want 8ms", faults.ExpandStart)
	}
	if faults.ExpandEnd < faults.ExpandStart {
		t.Fatalf("ExpandEnd %v precedes ExpandStart %v", faults.ExpandEnd, faults.ExpandStart)
	}

	// A crash at the upgrade's own instant — after it issued its
	// write-backs, before their P_C reads complete — leaves every chain
	// stale. None updates the archive, yet each must still tell the
	// upgrade's drain join: replayFault's invariant check finds that join
	// missing from the pool if one forgets.
	_, faults, _ = replayFault(t, newTestCRAID, recs, "seed=3;expand@8ms,disks=1;crash@8ms")
	if faults.Upgrades != 1 || faults.Restarts != 1 || faults.ExpandWriteback == 0 {
		t.Fatalf("upgrade and crash did not both fire: %+v", faults)
	}
	if faults.ExpandEnd != 8*sim.Millisecond {
		t.Fatalf("ExpandEnd = %v, want the crash instant 8ms: stale chains drain as timing only", faults.ExpandEnd)
	}
}

// TestFailOnSpareAbandonsRebuild pins a death during the disk's own
// rebuild: the spare dies — a second failure, and the device rejects I/O
// again — and its walk is abandoned: no more rebuild I/O, the batch in
// flight completes as timing only, a crash does not relaunch it, and the
// next rebuild walks from row zero and rejoins the device.
func TestFailOnSpareAbandonsRebuild(t *testing.T) {
	const (
		rate   = 64.0
		tBuild = 2 * sim.Millisecond
		tDeath = 6100 * sim.Microsecond // inside the third batch's decode
		tCheck = 7500 * sim.Microsecond
		tAgain = 8 * sim.Millisecond
	)
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 160, 4)
	c := mustCRAID(arr, Config{Policy: "WLRU", CachePerDisk: 64, ParityGroup: 4, StripeUnit: 4},
		true, disks, 0, paLayout, disks, 64)
	plan, err := fault.ParsePlan("seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;fail:1@6100us;crash@7ms;rebuild:1@8ms,rate=64")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := InstallFaults(arr, c, plan)
	if err != nil {
		t.Fatal(err)
	}

	// Progress before the death: batches whose spare write (issued at
	// start + decode charge, null devices) lands before it; the cache
	// partition's rows are walked first, then the archive's.
	pcRows := c.pc.red.BlocksPerDisk() / c.pc.red.StripeUnitBlocks()
	paRows := paLayout.BlocksPerDisk() / paLayout.StripeUnitBlocks()
	total := pcRows + paRows
	pace := sim.Time(float64(int64(rebuildBatchRows)*4*disk.BlockSize) * 1000 / rate)
	var preRows, preBatches int64
	start := tBuild
	for ; preRows < total; start += pace {
		left := pcRows - preRows
		if preRows >= pcRows {
			left = total - preRows
		}
		batch := min(int64(rebuildBatchRows), left)
		if start+reconPerBlock*sim.Time(batch*4) >= tDeath {
			break
		}
		preRows += batch
		preBatches++
	}
	if preRows == 0 || preRows == total || start > tDeath {
		t.Fatalf("reference degenerate: %d of %d rows before the death, the next batch starting at %v", preRows, total, start)
	}

	rejected := false
	eng.Schedule(tCheck, func() {
		if !arr.deviceDown(1) {
			t.Error("the dead spare is not routed around")
		}
		if st := rt.Stats(); st.RebuildRows != preRows {
			t.Errorf("%d rows rebuilt by %v, want the %d before the death", st.RebuildRows, tCheck, preRows)
		}
		if w := arr.Device(1).Stats().Writes; w != preBatches {
			t.Errorf("%d writes reached the spare by %v, want the %d batches before the death", w, tCheck, preBatches)
		}
		arr.submit(1, disk.OpRead, 0, 1, func(sim.Time) { rejected = true })
	})
	eng.Run()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.Failures != 2 || st.Restarts != 1 || st.RebuildRestarts != 0 {
		t.Fatalf("counters %+v, want 2 failures, 1 restart and no relaunched walk", st)
	}
	if s := arr.Device(1).Stats(); !rejected || s.Rejected != 1 || st.Transients != 1 || st.Permanent != 1 {
		t.Fatalf("a read of the dead spare: told %v, device %+v, fault stats %+v; want one rejection, given up at once",
			rejected, s, st)
	}
	if want := preRows + total; st.RebuildRows != want {
		t.Fatalf("RebuildRows = %d, want %d before the death + %d from row zero", st.RebuildRows, preRows, total)
	}
	batches := (pcRows+rebuildBatchRows-1)/rebuildBatchRows + (paRows+rebuildBatchRows-1)/rebuildBatchRows
	if want := tAgain + sim.Time(batches)*pace; st.RebuildEnd != want {
		t.Fatalf("second rebuild finished at %v, want %v", st.RebuildEnd, want)
	}
	if arr.deviceDown(1) {
		t.Fatal("device did not rejoin after the second rebuild")
	}
	checkInvariants(t, c)
}

// TestRebuildOfRebuildingDeviceIsNoOp pins a rebuild event on a device
// whose rebuild is still walking as a no-op — the run equals the one
// without it — while a spare whose walk lost rows is walked again.
func TestRebuildOfRebuildingDeviceIsNoOp(t *testing.T) {
	run := func(spec string) (FaultStats, []disk.Stats) {
		eng := sim.NewEngine()
		arr := nullArray(eng, 4, 10000)
		ctl := NewRAIDController(arr, raid.NewRAID5(4, 4, 160, 4), []int{0, 1, 2, 3}, 0)
		rt := installPlan(t, arr, ctl, spec)
		checkDrained(t, arr)
		devs := make([]disk.Stats, arr.Devices())
		for i := range devs {
			devs[i] = *arr.Device(i).Stats()
		}
		return *rt.Stats(), devs
	}
	once, onceDevs := run("seed=1;fail:1@1ms;rebuild:1@2ms,rate=64")
	twice, twiceDevs := run("seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;rebuild:1@3ms,rate=64")
	if once.RebuildRows == 0 || once.RebuildEnd <= 3*sim.Millisecond {
		t.Fatalf("the first walk is not walking at 3ms: %+v", once)
	}
	if twice != once || !reflect.DeepEqual(twiceDevs, onceDevs) {
		t.Fatalf("a rebuild of a rebuilding device changed the run:\n got %+v\nwant %+v", twice, once)
	}

	lost, _ := run("seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;fail:3@5ms")
	again, _ := run("seed=1;fail:1@1ms;rebuild:1@2ms,rate=64;fail:3@5ms;rebuild:1@40ms,rate=64")
	rows := raid.NewRAID5(4, 4, 160, 4).BlocksPerDisk() / 4
	if lost.RebuildLostRows == 0 || again.RebuildLostRows != lost.RebuildLostRows+rows {
		t.Fatalf("a rebuild of a spare that lost rows lost %d rows in all, want %d + a fresh walk's %d",
			again.RebuildLostRows, lost.RebuildLostRows, rows)
	}
}
