package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// installPlan parses and arms spec, then runs the engine so events at
// t=0 fire before the test submits anything.
func installPlan(t *testing.T, arr *Array, vol Volume, spec string) *FaultRuntime {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := InstallFaults(arr, vol, plan)
	if err != nil {
		t.Fatal(err)
	}
	arr.Eng.Run()
	return rt
}

// nullFactory is the device factory core tests hand to expand plans:
// null devices like the rest of the test array's.
func nullFactory(eng *sim.Engine) func(n int) []disk.Device {
	return func(n int) []disk.Device {
		out := make([]disk.Device, n)
		for i := range out {
			out[i] = disk.NewNullDevice(eng, "null", 100000)
		}
		return out
	}
}

// replayFault replays recs on a fresh controller from rig (64 P_C
// blocks per disk) with spec armed, checks the controller's invariants,
// and returns the full outcome fingerprint: controller stats and
// histograms, fault counters, and every device's counter struct
// (including Errors and Rejected).
func replayFault(t *testing.T, rig func(*sim.Engine, int64) (*CRAID, *Array),
	recs []trace.Record, spec string) (outcome, FaultStats, []disk.Stats) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	c, arr := rig(eng, 64)
	rt, err := InstallFaults(arr, c, plan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HasExpand() {
		rt.SetDeviceFactory(nullFactory(eng))
	}
	replayAll(t, eng, c, recs)
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	devs := make([]disk.Stats, arr.Devices())
	for i := range devs {
		devs[i] = *arr.Device(i).Stats()
	}
	return outcomeOf(c, arr), *rt.Stats(), devs
}

// replayFaultTwice is replayFault run twice over, requiring the second
// run to reproduce the first exactly: the simulation is specified to be
// a function of (workload, plan, seed), while the replay's reader
// goroutine runs beside it on a schedule of its own. It returns the
// first run's fault and device counters.
func replayFaultTwice(t *testing.T, rig func(*sim.Engine, int64) (*CRAID, *Array),
	recs []trace.Record, spec string) (FaultStats, []disk.Stats) {
	t.Helper()
	ref, refFaults, refDevs := replayFault(t, rig, recs, spec)
	got, gotFaults, gotDevs := replayFault(t, rig, recs, spec)
	if got != ref {
		t.Errorf("controller outcome differs between two runs\n got %+v\nwant %+v", got, ref)
	}
	if gotFaults != refFaults {
		t.Errorf("fault stats differ between two runs\n got %+v\nwant %+v", gotFaults, refFaults)
	}
	if !reflect.DeepEqual(gotDevs, refDevs) {
		t.Errorf("device counters differ between two runs")
	}
	return refFaults, refDevs
}

// TestFaultScenarioDeterministic runs a transient window (retries with
// backoff), a disk death (degraded reads and writes) and a rebuild
// under the live workload: the plan must exercise all three, lose
// nothing, leave the controller's invariants intact, and produce the
// identical outcome — Stats, fault counters, per-device counters
// including injected errors, latency histograms — when run again.
func TestFaultScenarioDeterministic(t *testing.T) {
	const spec = "seed=9;transient:1@5ms-25ms,rate=0.05,lat=3;fail:2@10ms;rebuild:2@20ms,rate=64"
	recs := randomWorkload(11, 3000, 12000)
	faults, _ := replayFaultTwice(t, newTestCRAID, recs, spec)
	if faults.Failures != 1 || faults.RebuildRows == 0 {
		t.Fatalf("plan did not exercise the fabric: %+v", faults)
	}
	if faults.LostExtents != 0 {
		t.Fatalf("single failure lost %d extents", faults.LostExtents)
	}
}

// TestFaultHealthyPlanLeavesRunUntouched pins that arming an empty
// plan (injectors attached, no events) changes nothing: the outcome
// equals a run with no fault runtime at all.
func TestFaultHealthyPlanLeavesRunUntouched(t *testing.T) {
	recs := randomWorkload(5, 2000, 12000)
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	replayAll(t, eng, c, recs)
	plain := outcomeOf(c, arr)
	armed, faults, _ := replayFault(t, newTestCRAID, recs, "seed=7")
	if armed != plain {
		t.Fatal("empty fault plan changed the run outcome")
	}
	if faults != (FaultStats{}) {
		t.Fatalf("empty plan accumulated fault stats: %+v", faults)
	}
}

// TestDegradedReadRAID5EveryBlockReadable is the degraded-mode
// correctness pin: with one disk down in a RAID-5 group, every single
// logical block still reads successfully, and the reconstruction cost
// and peer-read traffic match the per-unit reference computed directly
// from the layout geometry.
func TestDegradedReadRAID5EveryBlockReadable(t *testing.T) {
	const dead = 2
	eng := sim.NewEngine()
	arr := nullArray(eng, 5, 10000)
	lay := raid.NewRAID5(5, 5, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s", dead))

	recon := reconPerBlock
	var wantDeg, wantPeer int64
	for b := int64(0); b < lay.DataBlocks(); b++ {
		got := submitAndRun(eng, ctl, disk.OpRead, b, 1)
		if lay.Locate(b).Disk == dead {
			wantDeg++
			wantPeer += int64(len(lay.RowPeers(b, nil))) // all peers survive
			if got != recon {                            // one block, one erasure
				t.Fatalf("block %d: degraded read took %v, want %v", b, got, recon)
			}
		} else if got != 0 {
			t.Fatalf("block %d: healthy read took %v on instant devices", b, got)
		}
	}
	st := rt.Stats()
	if st.LostExtents != 0 {
		t.Fatalf("single failure lost %d extents", st.LostExtents)
	}
	if st.DegradedReads != wantDeg || st.DegradedBlocks != wantDeg || st.PeerReads != wantPeer {
		t.Fatalf("degraded counters %+v, reference wants %d reads / %d peer reads",
			st, wantDeg, wantPeer)
	}
	if s := arr.Device(dead).Stats(); s.Reads != 0 || s.Rejected != 0 {
		t.Fatalf("dead device was consulted: %+v", s)
	}
	checkDrained(t, arr)
}

// TestDegradedReadCoalescesContiguousRows pins the row-batched
// degraded-read contract against the per-unit reference: a read
// spanning many stripe rows reconstructs each device-contiguous run of
// dead-disk units with ONE peer submission per survivor and one
// aggregated reconstruction charge, while DegradedBlocks and the
// per-block compute total stay exactly what the per-unit walk would
// report. Parity rotation breaks the dead disk's data runs every
// group-size rows, so the reference predicts both the run count and
// where each run starts.
func TestDegradedReadCoalescesContiguousRows(t *testing.T) {
	const dead = 2
	eng := sim.NewEngine()
	arr := nullArray(eng, 5, 10000)
	lay := raid.NewRAID5(5, 5, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s", dead))

	// Per-unit reference walk over the whole address space, emulating
	// device-block coalescing: consecutive dead-disk blocks extend the
	// run; a device-block gap (a parity row of the dead disk) starts a
	// new one.
	var wantRuns, wantBlocks, wantPeer, runLen, maxRun int64
	nextBlk := int64(-1)
	for b := int64(0); b < lay.DataBlocks(); b++ {
		p := lay.Locate(b)
		if p.Disk != dead {
			continue
		}
		wantBlocks++
		if p.Block == nextBlk {
			nextBlk++
			runLen++
		} else {
			wantRuns++
			wantPeer += int64(len(lay.RowPeers(b, nil)))
			nextBlk = p.Block + 1
			runLen = 1
		}
		if runLen > maxRun {
			maxRun = runLen
		}
	}
	if wantRuns <= 1 || wantRuns >= wantBlocks {
		t.Fatalf("reference degenerate: %d runs over %d blocks", wantRuns, wantBlocks)
	}

	recon := reconPerBlock
	got := submitAndRun(eng, ctl, disk.OpRead, 0, lay.DataBlocks())
	// Runs reconstruct as parallel branches of the request join on
	// instant devices: completion is gated by the longest run's
	// aggregated charge.
	if want := sim.Time(maxRun) * recon; got != want {
		t.Fatalf("coalesced read took %v, want longest run %d blocks * recon = %v", got, maxRun, want)
	}
	st := rt.Stats()
	if st.LostExtents != 0 {
		t.Fatalf("single failure lost %d extents", st.LostExtents)
	}
	if st.DegradedReads != wantRuns || st.DegradedBlocks != wantBlocks || st.PeerReads != wantPeer {
		t.Fatalf("degraded counters %+v, per-unit reference wants %d runs / %d blocks / %d peer reads",
			st, wantRuns, wantBlocks, wantPeer)
	}
	if s := arr.Device(dead).Stats(); s.Reads != 0 || s.Rejected != 0 {
		t.Fatalf("dead device was consulted: %+v", s)
	}
	checkDrained(t, arr)
}

// TestDegradedReadRAID6DoubleFailure extends the pin to two
// simultaneous losses: RAID-6 still serves every block, the decode
// pays for two erasures, and only the surviving peers are read.
func TestDegradedReadRAID6DoubleFailure(t *testing.T) {
	deadA, deadB := 1, 4
	eng := sim.NewEngine()
	arr := nullArray(eng, 6, 10000)
	lay := raid.NewRAID6(6, 6, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4, 5}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s;fail:%d@0s", deadA, deadB))

	recon := reconPerBlock
	var wantDeg, wantPeer int64
	for b := int64(0); b < lay.DataBlocks(); b++ {
		got := submitAndRun(eng, ctl, disk.OpRead, b, 1)
		d := lay.Locate(b).Disk
		if d == deadA || d == deadB {
			wantDeg++
			// One peer is the other dead disk: both erasures are
			// solved, and one fewer peer is readable.
			wantPeer += int64(len(lay.RowPeers(b, nil))) - 1
			if want := 2 * recon; got != want {
				t.Fatalf("block %d: double-degraded read took %v, want %v", b, got, want)
			}
		} else if got != 0 {
			t.Fatalf("block %d: healthy read took %v", b, got)
		}
	}
	st := rt.Stats()
	if st.LostExtents != 0 {
		t.Fatalf("double failure in RAID-6 lost %d extents", st.LostExtents)
	}
	if st.DegradedReads != wantDeg || st.PeerReads != wantPeer {
		t.Fatalf("degraded counters %+v, reference wants %d reads / %d peer reads",
			st, wantDeg, wantPeer)
	}
	checkDrained(t, arr)
}

// TestDegradedWriteRAID5 pins the write-side degraded contract against
// the geometry reference: dead parity legs are skipped, a dead data
// leg becomes a reconstruct-write through the surviving data peers,
// and nothing ever lands on the dead device.
func TestDegradedWriteRAID5(t *testing.T) {
	const dead = 2
	eng := sim.NewEngine()
	arr := nullArray(eng, 5, 10000)
	lay := raid.NewRAID5(5, 5, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s", dead))

	recon := reconPerBlock
	var wantDeg, wantPeer int64
	for b := int64(0); b < lay.DataBlocks(); b++ {
		got := submitAndRun(eng, ctl, disk.OpWrite, b, 1)
		p, _ := lay.ParityOf(b)
		deadData := lay.Locate(b).Disk == dead
		switch {
		case deadData:
			wantDeg++
			// Surviving data peers: the group minus the dead data disk
			// and minus the parity disk (overwritten, not read).
			wantPeer += int64(len(lay.RowPeers(b, nil))) - 1
			if got != recon {
				t.Fatalf("block %d: reconstruct-write took %v, want %v", b, got, recon)
			}
		case p.Disk == dead:
			wantDeg++ // parity leg skipped; data leg RMW only
			if got != 0 {
				t.Fatalf("block %d: dead-parity write took %v", b, got)
			}
		default:
			if got != 0 {
				t.Fatalf("block %d: healthy write took %v", b, got)
			}
		}
	}
	st := rt.Stats()
	if st.LostExtents != 0 || st.DegradedWrites != wantDeg || st.PeerReads != wantPeer {
		t.Fatalf("degraded write counters %+v, reference wants %d writes / %d peer reads",
			st, wantDeg, wantPeer)
	}
	if s := arr.Device(dead).Stats(); s.Reads != 0 || s.Writes != 0 || s.Rejected != 0 {
		t.Fatalf("dead device was touched: %+v", s)
	}
	checkDrained(t, arr)
}

// TestDegradedBeyondRedundancyReportsLost pins the loss contract: a
// non-redundant layout (RAID-0) with a dead disk completes the timing
// of every request but reports LostError for extents on the dead
// device, and counts them.
func TestDegradedBeyondRedundancyReportsLost(t *testing.T) {
	const dead = 1
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	lay := raid.NewRAID0(4, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s", dead))

	var wantLost int64
	for b := int64(0); b < lay.DataBlocks(); b++ {
		for _, op := range []disk.Op{disk.OpRead, disk.OpWrite} {
			completed := false
			err := ctl.Submit(trace.Record{Op: op, Block: b, Count: 1},
				func(sim.Time) { completed = true })
			eng.Run()
			if !completed {
				t.Fatalf("block %d %v: request never completed", b, op)
			}
			if lay.Locate(b).Disk == dead {
				wantLost++
				var lost *LostError
				if !errors.As(err, &lost) {
					t.Fatalf("block %d %v: err = %v, want LostError", b, op, err)
				}
				if lost.Op != op || lost.Block != b || lost.Extents != 1 {
					t.Fatalf("block %d %v: LostError fields %+v", b, op, lost)
				}
			} else if err != nil {
				t.Fatalf("block %d %v on healthy disk: %v", b, op, err)
			}
		}
	}
	if st := rt.Stats(); st.LostExtents != wantLost {
		t.Fatalf("LostExtents = %d, reference wants %d", st.LostExtents, wantLost)
	}
	checkDrained(t, arr)
}

// TestDegradedRAID5SecondFailureLosesData pins the same boundary on a
// redundant layout: two dead disks in one RAID-5 group exceed the
// parity budget exactly for the blocks whose row touches both.
func TestDegradedRAID5SecondFailureLosesData(t *testing.T) {
	deadA, deadB := 1, 3
	eng := sim.NewEngine()
	arr := nullArray(eng, 5, 10000)
	lay := raid.NewRAID5(5, 5, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3, 4}, 0)
	rt := installPlan(t, arr, ctl, fmt.Sprintf("seed=1;fail:%d@0s;fail:%d@0s", deadA, deadB))

	var wantLost int64
	for b := int64(0); b < lay.DataBlocks(); b++ {
		d := lay.Locate(b).Disk
		err := ctl.Submit(trace.Record{Op: disk.OpRead, Block: b, Count: 1}, func(sim.Time) {})
		eng.Run()
		if d == deadA || d == deadB {
			wantLost++
			var lost *LostError
			if !errors.As(err, &lost) {
				t.Fatalf("block %d: dead-disk read err = %v, want LostError", b, err)
			}
		} else if err != nil {
			// Single-group RAID-5: both dead disks are always peers,
			// but a healthy data disk's read never reconstructs.
			t.Fatalf("block %d: healthy-disk read errored: %v", b, err)
		}
	}
	if st := rt.Stats(); st.LostExtents != wantLost || st.DegradedReads != 0 {
		t.Fatalf("counters %+v, want %d lost and no degraded reads", rt.Stats(), wantLost)
	}
	checkDrained(t, arr)
}

// TestFaultTransientRetryBudget pins the retry machinery exactly: a
// rate-1 window makes every attempt fail, so one submission burns the
// whole budget — maxAttempts transients, maxAttempts-1 retries with
// exponential backoff, one permanent failure — and the client's
// completion arrives after the summed backoff.
func TestFaultTransientRetryBudget(t *testing.T) {
	eng := sim.NewEngine()
	arr := nullArray(eng, 2, 10000)
	lay := raid.NewRAID0(2, 160, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1}, 0)
	rt := installPlan(t, arr, ctl, "seed=1;transient:0@0s,rate=1,lat=1")

	// Block 0 lives on disk 0 (RAID-0 striping starts there).
	if d := lay.Locate(0).Disk; d != 0 {
		t.Fatalf("layout places block 0 on disk %d", d)
	}
	got := submitAndRun(eng, ctl, disk.OpRead, 0, 1)
	// Backoffs: 1ms, 2ms, 4ms after attempts 1..3; attempt 4 gives up.
	if want := 7 * retryBase; got != want {
		t.Fatalf("retry choreography took %v, want %v", got, want)
	}
	st := rt.Stats()
	if st.Transients != 4 || st.Retries != 3 || st.Permanent != 1 {
		t.Fatalf("retry counters %+v, want 4 transients / 3 retries / 1 permanent", st)
	}
	if s := arr.Device(0).Stats(); s.Errors != 4 || s.Reads != 0 {
		t.Fatalf("device saw %+v, want 4 errored attempts", s)
	}
	// The window only covers disk 0: disk 1 serves normally.
	var b1 int64 = -1
	for b := int64(0); b < lay.DataBlocks(); b++ {
		if lay.Locate(b).Disk == 1 {
			b1 = b
			break
		}
	}
	if got := submitAndRun(eng, ctl, disk.OpRead, b1, 1); got != 0 {
		t.Fatalf("unaffected disk read took %v", got)
	}
	checkDrained(t, arr)
}

// TestFaultRebuildWalksAndRestoresDevice pins the rebuild pipeline on
// a quiet array: the walk covers every row, batches rebuildBatchRows
// consecutive rows per step (one read per surviving peer and one spare
// write per batch), paces each batch to the configured rate, and
// rejoins the device — after which reads are served natively again.
func TestFaultRebuildWalksAndRestoresDevice(t *testing.T) {
	const dead = 1
	eng := sim.NewEngine()
	arr := nullArray(eng, 4, 10000)
	lay := raid.NewRAID5(4, 4, 64, 4)
	ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3}, 0)
	plan := fmt.Sprintf("seed=1;fail:%d@1ms;rebuild:%d@2ms,rate=64", dead, dead)
	rt := installPlan(t, arr, ctl, plan) // installPlan drains: rebuild completes here

	rows := lay.BlocksPerDisk() / lay.StripeUnitBlocks()
	batches := (rows + rebuildBatchRows - 1) / rebuildBatchRows
	st := rt.Stats()
	if st.RebuildRows != rows || st.RebuildBlocks != lay.BlocksPerDisk() {
		t.Fatalf("rebuild covered %d rows / %d blocks, want %d / %d",
			st.RebuildRows, st.RebuildBlocks, rows, lay.BlocksPerDisk())
	}
	if s := arr.Device(dead).Stats(); s.Writes != batches {
		t.Fatalf("spare received %d writes, want one per row batch (%d)", s.Writes, batches)
	}
	if want := batches * int64(len(lay.DiskPeers(dead, nil))); st.PeerReads != want {
		t.Fatalf("rebuild issued %d peer reads, want %d (one per peer per batch)", st.PeerReads, want)
	}
	// Pacing: batch starts are rate-limited and each full batch's pace
	// covers its rebuildBatchRows rows, so the span from first to last
	// completion covers at least batches-1 full-batch gaps.
	pace := sim.Time(float64(rebuildBatchRows*lay.StripeUnitBlocks()*disk.BlockSize) * 1000 / 64)
	if d := st.RebuildDuration(); d < sim.Time(batches-1)*pace {
		t.Fatalf("rebuild duration %v under the rate-limit floor %v", d, sim.Time(batches-1)*pace)
	}
	// The device rejoined: reads are native (no reconstruction delay,
	// no degraded counters moving).
	deg0 := st.DegradedReads
	for b := int64(0); b < lay.DataBlocks(); b++ {
		if lay.Locate(b).Disk == dead {
			if got := submitAndRun(eng, ctl, disk.OpRead, b, 1); got != 0 {
				t.Fatalf("post-rebuild read of block %d took %v", b, got)
			}
			break
		}
	}
	if st.DegradedReads != deg0 {
		t.Fatal("post-rebuild read still reconstructed")
	}
	checkDrained(t, arr)
}

// TestCrashRestartLogRingMatchesSyncControl is the crash-recovery e2e
// (named for the writer it was first written against): the same
// workload replayed with a crash mid-run, once with the table logging
// straight into a plain buffer, one Write per record, and once through
// SetMappingLog's buffer, the sink in both cases being the crash
// source. The recovered state, the entire post-crash run, and the
// final log byte streams must be identical — buffering changes when
// bytes reach the sink, never which.
func TestCrashRestartLogRingMatchesSyncControl(t *testing.T) {
	recs := randomWorkload(23, 4000, 12000)
	const spec = "seed=5;crash@20ms"

	type outcome struct {
		faults FaultStats
		stats  Stats
		dirty  []mapcache.Mapping
		rd, wr string
	}
	run := func(buffered bool) (outcome, []byte) {
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		c, arr := newTestCRAID(eng, 64)
		var log bytes.Buffer
		if buffered {
			c.SetMappingLog(&log)
		} else {
			c.table.SetLog(&log) // the control: one Write per record
		}
		rt, err := InstallFaults(arr, c, plan)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetCrashSource(func() (io.Reader, error) {
			return bytes.NewReader(log.Bytes()), nil
		})
		replayAll(t, eng, c, recs)
		if err := rt.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CloseMappingLog(); err != nil {
			t.Fatal(err)
		}
		return outcome{
			faults: *rt.Stats(),
			stats:  *c.Stats(),
			dirty:  c.table.DirtyMappings(),
			rd:     c.ReadLatency().String(),
			wr:     c.WriteLatency().String(),
		}, log.Bytes()
	}

	sync, syncLog := run(false)
	bufO, bufLog := run(true)
	if sync.faults.Restarts != 1 {
		t.Fatalf("crash never fired: %+v", sync.faults)
	}
	if sync.faults.RecoveredMappings == 0 {
		t.Fatal("crash recovered no mappings; the workload should have dirtied the cache")
	}
	if bufO.faults != sync.faults {
		t.Errorf("fault stats diverged:\n  buffered %+v\n  sync     %+v", bufO.faults, sync.faults)
	}
	if bufO.stats != sync.stats {
		t.Error("controller stats diverged between buffered and sync logs")
	}
	if !reflect.DeepEqual(bufO.dirty, sync.dirty) {
		t.Error("post-crash dirty mapping state diverged")
	}
	if bufO.rd != sync.rd || bufO.wr != sync.wr {
		t.Error("latency histograms diverged")
	}
	if !bytes.Equal(syncLog, bufLog) {
		t.Errorf("log byte streams diverged (%d vs %d bytes)", len(syncLog), len(bufLog))
	}
}

// TestCrashRecoveryMidExpandRetain kills the controller while a
// retaining Expand's migration reads are in flight: the epoch stamp must
// drop every stale re-placement write, and the recovered mapping state
// must equal what a fresh controller recovers from the same log.
func TestCrashRecoveryMidExpandRetain(t *testing.T) {
	recs := randomWorkload(29, 2500, 12000)
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	var log bytes.Buffer
	c.SetMappingLog(&log)
	replayAll(t, eng, c, recs)
	logBytes := append([]byte(nil), log.Bytes()...)

	st := c.Expand([]disk.Device{disk.NewNullDevice(eng, "spare", 100000)}, true, nil)
	if st.Migrated == 0 {
		t.Fatal("expansion migrated nothing; the cache should be populated")
	}
	// The migration I/O is scheduled but not yet run: crash now.
	writesBefore := make([]int64, arr.Devices())
	for i := range writesBefore {
		writesBefore[i] = arr.Device(i).Stats().Writes
	}
	n, err := c.CrashRestart(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("restart recovered no mappings")
	}
	eng.Run() // drain the stale migration reads
	checkInvariants(t, c)
	for i := 0; i < arr.Devices(); i++ {
		if got := arr.Device(i).Stats().Writes; got != writesBefore[i] {
			t.Fatalf("device %d: %d stale re-placement writes landed after the crash",
				i, got-writesBefore[i])
		}
	}

	// Control: a fresh controller born with the expanded geometry,
	// recovering the same log, must hold the identical mapping state.
	eng2 := sim.NewEngine()
	arr2 := nullArray(eng2, 5, 100000)
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c2 := mustCRAID(arr2, Config{
		Policy: "WLRU", CachePerDisk: 64, ParityGroup: 4, StripeUnit: 4,
	}, true, []int{0, 1, 2, 3, 4}, 0, paLayout, []int{0, 1, 2, 3}, 64)
	n2, err := c2.Recover(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("restart recovered %d mappings, fresh Recover %d", n, n2)
	}
	if !reflect.DeepEqual(c.table.DirtyMappings(), c2.table.DirtyMappings()) {
		t.Fatal("post-crash mapping state diverged from a fresh recovery")
	}

	// Both controllers now replay a second phase; their mapping state
	// must stay in lockstep — the crash survivor is a working
	// controller, not a wreck.
	recs2 := randomWorkload(31, 1500, 12000)
	for i := range recs2 {
		recs2[i].Time += sim.Second
	}
	replayAll(t, eng, c, recs2)
	replayAll(t, eng2, c2, recs2)
	if c.table.Len() != c2.table.Len() ||
		!reflect.DeepEqual(c.table.DirtyMappings(), c2.table.DirtyMappings()) {
		t.Fatal("phase-2 mapping state diverged between crash survivor and control")
	}
}

// dyingLog is a mapping-log sink that fails every Write once it has
// been offered more than limit bytes.
type dyingLog struct {
	n, limit int
}

func (w *dyingLog) Write(p []byte) (int, error) {
	if w.n += len(p); w.n > w.limit {
		return 0, errors.New("log device gone")
	}
	return len(p), nil
}

// TestMappingLogErrorFailsRun pins that a dying mapping-log device
// surfaces as the error of the Submit whose flush step hit it, and of
// every Submit after it, aborting the replay instead of silently
// dropping durability.
func TestMappingLogErrorFailsRun(t *testing.T) {
	recs := randomWorkload(3, 3000, 12000)
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	sink := &dyingLog{limit: 4096}
	c.SetMappingLog(sink)
	n, err := Replay(eng, c, trace.NewSlice(recs))
	if err == nil {
		t.Fatal("replay over a dying mapping log reported success")
	}
	checkInvariants(t, c)
	if !strings.Contains(err.Error(), "mapping log") {
		t.Fatalf("error does not name the mapping log: %v", err)
	}
	if n == 0 || n >= int64(len(recs)) {
		t.Fatalf("replay stopped after %d of %d records, want somewhere inside", n, len(recs))
	}
	// The failed write is the first one past the limit, and nothing was
	// offered to the sink after it.
	if offered := sink.n; offered <= sink.limit || offered > sink.limit+mapLogBufBytes {
		t.Fatalf("sink was offered %d bytes around a limit of %d", offered, sink.limit)
	}
	offered := sink.n
	if err := c.Submit(recs[n], nil); err == nil || !strings.Contains(err.Error(), "mapping log") {
		t.Fatalf("Submit after the failure: %v, want the mapping log's error again", err)
	}
	if _, err := c.CloseMappingLog(); err == nil {
		t.Fatal("CloseMappingLog lost the error")
	}
	if sink.n != offered {
		t.Fatalf("sink was written to after it failed (%d → %d bytes)", offered, sink.n)
	}
}
