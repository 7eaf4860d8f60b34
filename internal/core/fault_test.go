package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	o, f, d, _ := replayFaultArray(t, rig, recs, spec)
	return o, f, d
}

// replayFaultArray is replayFault that also returns the array.
func replayFaultArray(t *testing.T, rig func(*sim.Engine, int64) (*CRAID, *Array),
	recs []trace.Record, spec string) (outcome, FaultStats, []disk.Stats, *Array) {
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
	return outcomeOf(c, arr), *rt.Stats(), devs, arr
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
// plan (verdict streams drawn from, no events) changes nothing: the
// outcome equals a run with no fault runtime at all, and so does the
// join pool, so no healthy attempt takes a retry join.
func TestFaultHealthyPlanLeavesRunUntouched(t *testing.T) {
	recs := randomWorkload(5, 2000, 12000)
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	replayAll(t, eng, c, recs)
	plain := outcomeOf(c, arr)
	armed, faults, _, armedArr := replayFaultArray(t, newTestCRAID, recs, "seed=7")
	if armed != plain {
		t.Fatal("empty fault plan changed the run outcome")
	}
	if faults != (FaultStats{}) {
		t.Fatalf("empty plan accumulated fault stats: %+v", faults)
	}
	if armedArr.joinsMade != arr.joinsMade {
		t.Fatalf("empty plan made %d joins, the plain run %d", armedArr.joinsMade, arr.joinsMade)
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
			wantPeer += int64(len(lay.DiskPeers(dead, nil))) // all peers survive
			if got != recon {                                // one block, one erasure
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
			wantPeer += int64(len(lay.DiskPeers(dead, nil)))
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
			wantPeer += int64(len(lay.DiskPeers(d, nil))) - 1
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
			wantPeer += int64(len(lay.DiskPeers(dead, nil))) - 1
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

// genPlan draws a fault plan for an array of width devices whose replay
// lasts about span: up to two transient windows, maybe a disk death and
// its rebuild (on the windowed disk, sometimes), maybe followed by a
// second death of that disk or a second rebuild of it, either of which
// may land while the first walks, and, on a CRAID volume, maybe a crash
// and an expand of either kind.
func genPlan(rng *rand.Rand, width int, craid bool, span sim.Time) string {
	at := func() int64 { return int64(rng.Int63n(int64(span / sim.Microsecond))) }
	items := []string{fmt.Sprintf("seed=%d", rng.Intn(1000))}
	dev := rng.Intn(width)
	for i := rng.Intn(3); i > 0; i-- {
		from := at()
		items = append(items, fmt.Sprintf("transient:%d@%dus-%dus,rate=%.2f,lat=%d",
			dev, from, from+1+at(), 0.01+0.3*rng.Float64(), 1+rng.Intn(4)))
		dev = rng.Intn(width)
	}
	if rng.Intn(2) == 0 {
		fail := at()
		rebuild := fail + at()/4
		items = append(items, fmt.Sprintf("fail:%d@%dus", dev, fail),
			fmt.Sprintf("rebuild:%d@%dus,rate=%d", dev, rebuild, 64+rng.Intn(512)))
		switch again := rebuild + at()/8; rng.Intn(3) {
		case 0:
			items = append(items, fmt.Sprintf("fail:%d@%dus", dev, again))
		case 1:
			items = append(items, fmt.Sprintf("rebuild:%d@%dus,rate=%d", dev, again, 64+rng.Intn(512)))
		}
	}
	if craid && rng.Intn(2) == 0 {
		items = append(items, fmt.Sprintf("crash@%dus", at()))
	}
	if craid && rng.Intn(2) == 0 {
		retain := []string{"", ",retain"}[rng.Intn(2)]
		items = append(items, fmt.Sprintf("expand@%dus,disks=%d%s", at(), 1+rng.Intn(2), retain))
	}
	return strings.Join(items, ";")
}

// TestEveryDeviceErrorReachesRetry replays seeded, generated plans on
// small CRAID-5 and RAID-5 arrays and holds the fault runtime to the
// devices' own counters: every error a device reports — an error verdict
// or a rejection of an attempt on a dead disk — reached the retry step as
// a transient, and nothing else did.
func TestEveryDeviceErrorReachesRetry(t *testing.T) {
	const span = 20 * sim.Millisecond // randomWorkload's 2000 records, 10 µs apart
	var total FaultStats
	for seed := int64(1); seed <= 24; seed++ {
		for _, craid := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			var arr *Array
			var vol Volume
			if craid {
				vol, arr = newTestCRAID(eng, 64)
			} else {
				arr = nullArray(eng, 5, 100000)
				vol = NewRAIDController(arr, raid.NewRAID5(5, 5, 4096, 4), []int{0, 1, 2, 3, 4}, 0)
			}
			spec := genPlan(rng, arr.Devices(), craid, span)
			plan, err := fault.ParsePlan(spec)
			if err == nil {
				err = plan.Validate(arr.Devices())
			}
			if err != nil {
				t.Fatalf("generated plan %q: %v", spec, err)
			}
			rt, err := InstallFaults(arr, vol, plan)
			if err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			rt.SetDeviceFactory(nullFactory(eng))
			if _, err := Replay(eng, vol, trace.NewSlice(randomWorkload(seed, 2000, 12000))); err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			if err := rt.Err(); err != nil {
				t.Fatalf("%q: %v", spec, err)
			}
			checkDrained(t, arr)
			var doomed int64
			for i := 0; i < arr.Devices(); i++ {
				s := arr.Device(i).Stats()
				doomed += s.Errors + s.Rejected
			}
			st := rt.Stats()
			if st.Transients != doomed || st.Retries+st.Permanent != st.Transients {
				t.Errorf("%q: devices reported %d errors, the retry logic saw %d transients (%d retried, %d permanent)",
					spec, doomed, st.Transients, st.Retries, st.Permanent)
			}
			total.Transients += st.Transients
			total.Failures += st.Failures
			total.RebuildRows += st.RebuildRows
			total.Restarts += st.Restarts
			total.ExpandMigrated += st.ExpandMigrated
			total.ExpandInvalidated += st.ExpandInvalidated
		}
	}
	if total.Transients == 0 || total.Failures == 0 || total.RebuildRows == 0 || total.Restarts == 0 ||
		total.ExpandMigrated == 0 || total.ExpandInvalidated == 0 {
		t.Errorf("the generated plans left part of the fabric idle: %+v", total)
	}
}

// TestFaultRebuildWalksAndRestoresDevice pins the rebuild pipeline on
// a quiet array: the walk covers every row, batches rebuildBatchRows
// consecutive rows per step (one read per surviving peer and one spare
// write per batch, the last batch short when the row count is not a
// multiple of it), writes the spare front to back, paces each batch to
// the configured rate, and rejoins the device — after which reads are
// served natively again.
func TestFaultRebuildWalksAndRestoresDevice(t *testing.T) {
	const dead = 1
	for _, blocksPerDisk := range []int64{64, 156} { // 16 and 39 rows
		eng := sim.NewEngine()
		var spare [][2]int64 // the spare's writes, in submission order
		devs := make([]disk.Device, 4)
		for i := range devs {
			devs[i] = disk.NewNullDevice(eng, "null", 10000)
		}
		devs[dead] = writeLog{devs[dead], &spare}
		arr := NewArray(eng, devs)
		lay := raid.NewRAID5(4, 4, blocksPerDisk, 4)
		ctl := NewRAIDController(arr, lay, []int{0, 1, 2, 3}, 0)
		plan := fmt.Sprintf("seed=1;fail:%d@1ms;rebuild:%d@2ms,rate=64", dead, dead)
		rt := installPlan(t, arr, ctl, plan) // installPlan drains: rebuild completes here

		unit := lay.StripeUnitBlocks()
		rows := lay.BlocksPerDisk() / unit
		batches := (rows + rebuildBatchRows - 1) / rebuildBatchRows
		st := rt.Stats()
		if st.RebuildRows != rows || st.RebuildBlocks != lay.BlocksPerDisk() || st.RebuildLostRows != 0 {
			t.Fatalf("%d rows: rebuild covered %d rows / %d blocks, lost %d, want %d / %d",
				rows, st.RebuildRows, st.RebuildBlocks, st.RebuildLostRows, rows, lay.BlocksPerDisk())
		}
		var want [][2]int64
		for r := int64(0); r < rows; r += rebuildBatchRows {
			want = append(want, [2]int64{r * unit, min(rebuildBatchRows, rows-r) * unit})
		}
		if !slices.Equal(spare, want) {
			t.Fatalf("%d rows: spare writes (block, count) %v, want one per row batch %v", rows, spare, want)
		}
		if want := batches * int64(len(lay.DiskPeers(dead, nil))); st.PeerReads != want {
			t.Fatalf("%d rows: rebuild issued %d peer reads, want %d (one per peer per batch)", rows, st.PeerReads, want)
		}
		// Pacing: batch starts are rate-limited and each full batch's pace
		// covers its rebuildBatchRows rows, so the span from first to last
		// completion covers at least batches-1 full-batch gaps.
		pace := sim.Time(float64(rebuildBatchRows*unit*disk.BlockSize) * 1000 / 64)
		if d := st.RebuildDuration(); d < sim.Time(batches-1)*pace {
			t.Fatalf("%d rows: rebuild duration %v under the rate-limit floor %v", rows, d, sim.Time(batches-1)*pace)
		}
		// The device rejoined: reads are native (no reconstruction delay,
		// no degraded counters moving).
		deg0 := st.DegradedReads
		for b := int64(0); b < lay.DataBlocks(); b++ {
			if lay.Locate(b).Disk == dead {
				if got := submitAndRun(eng, ctl, disk.OpRead, b, 1); got != 0 {
					t.Fatalf("%d rows: post-rebuild read of block %d took %v", rows, b, got)
				}
				break
			}
		}
		if st.DegradedReads != deg0 {
			t.Fatalf("%d rows: post-rebuild read still reconstructed", rows)
		}
		checkDrained(t, arr)
	}
}

// writeLog is a device that appends each write's (block, count) to runs.
type writeLog struct {
	disk.Device
	runs *[][2]int64
}

func (d writeLog) Submit(r *disk.Request) {
	if r.Op == disk.OpWrite {
		*d.runs = append(*d.runs, [2]int64{r.Block, r.Count})
	}
	d.Device.Submit(r)
}

// TestCrashRestartLogRingMatchesSyncControl is the crash-recovery e2e
// (named for the writer it was first written against): a workload
// replayed with a crash mid-run recovers from the controller's own
// dirty-log image, which is complete at the crash.
func TestCrashRestartLogRingMatchesSyncControl(t *testing.T) {
	st := crashImagesComplete(t, newTestCRAID, randomWorkload(23, 4000, 12000), "seed=5;crash@20ms")
	if st.Restarts != 1 || st.RecoveredMappings == 0 {
		t.Fatalf("%d restarts recovering %d mappings; the workload should have dirtied the cache", st.Restarts, st.RecoveredMappings)
	}
}

// TestCrashImageCompleteAtEveryCrash holds the dirty-log image to the
// mapping table at every crash of the plans that crash the controller
// in the benchmark and in CI, scaled onto the test arrays — the
// benchmark's crash storm under failures, rebuilds and a transient
// window; an invalidating expansion followed by a crash, and one at the
// same instant; crashes through a retaining expansion's migration — and
// at every crash of the generated plans that draw one.
func TestCrashImageCompleteAtEveryCrash(t *testing.T) {
	recs := randomWorkload(37, 4000, 12000) // 40 ms; one hour of a week is 0.25 ms
	var plans, crashes, recovered int64
	add := func(st FaultStats) {
		plans, crashes, recovered = plans+1, crashes+st.Restarts, recovered+st.RecoveredMappings
	}
	add(crashImagesComplete(t, newTestCRAID6, recs, "seed=1;fail:2@3ms;fail:4@6ms;rebuild:2@25ms,rate=64;"+
		"rebuild:4@30ms,rate=64;transient:5@250us-40ms,rate=0.02,lat=4;storm:crash@32500us,n=3,every=2500us"))
	for _, spec := range []string{
		"seed=1;expand@10ms,disks=5;crash@15ms",
		"seed=1;expand@10ms,disks=5;crash@10ms",
		"seed=2;expand@10ms,disks=1,retain;crash@10ms;storm:crash@20ms,n=3,every=5ms",
	} {
		add(crashImagesComplete(t, newTestCRAID, recs, spec))
	}
	const span = 20 * sim.Millisecond
	for seed := int64(1); seed <= 24; seed++ {
		spec := genPlan(rand.New(rand.NewSource(seed)), 4, true, span)
		if strings.Contains(spec, "crash@") {
			add(crashImagesComplete(t, newTestCRAID, randomWorkload(seed, 2000, 12000), spec))
		}
	}
	t.Logf("%d crashes in %d plans, %d mappings recovered", crashes, plans, recovered)
	if crashes < 20 || recovered == 0 {
		t.Fatalf("%d crashes recovering %d mappings: the plans should crash a dirty cache often", crashes, recovered)
	}
}

// crashImagesComplete replays recs on a controller from rig under spec
// and checks the controller's dirty-log image at every crash. Right
// before a crash — from an event scheduled ahead of InstallFaults's at
// the crash's instant — the image is complete (checkImage); right after
// it, the controller holds exactly the dirty set it held before. An
// invalidating expansion at a crash's instant writes every dirty block
// back whichever of the two fires first, so after that crash nothing is
// dirty. It returns the runtime's counters.
func crashImagesComplete(t *testing.T, rig func(*sim.Engine, int64) (*CRAID, *Array),
	recs []trace.Record, spec string) FaultStats {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var at []sim.Time // crash instants, in plan order
	for _, ev := range plan.Events {
		switch ev.Kind {
		case fault.CrashRestart:
			at = append(at, ev.At)
		case fault.Storm:
			for k := 0; k < ev.N; k++ {
				at = append(at, ev.At+sim.Time(k)*ev.Every)
			}
		}
	}
	eng := sim.NewEngine()
	c, arr := rig(eng, 64)
	before := make([][]mapcache.Mapping, len(at))
	for i, t0 := range at {
		eng.Schedule(t0, func() { before[i] = checkImage(t, c, fmt.Sprintf("%q, right before the crash at %v", spec, t0)) })
	}
	rt, err := InstallFaults(arr, c, plan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HasExpand() {
		rt.SetDeviceFactory(nullFactory(eng))
	}
	for i, t0 := range at {
		invalidated := slices.ContainsFunc(plan.Events, func(ev fault.Event) bool {
			return ev.Kind == fault.Expand && !ev.Retain && ev.At == t0
		})
		eng.Schedule(t0, func() {
			want := before[i]
			if invalidated {
				want = nil
			}
			if got := c.mon.table.DirtyMappings(); !slices.Equal(got, want) {
				t.Fatalf("%q, right after the crash at %v: %d mappings dirty, want %d", spec, t0, len(got), len(want))
			}
		})
	}
	replayAll(t, eng, c, recs)
	if err := rt.Err(); err != nil {
		t.Fatalf("%q: %v", spec, err)
	}
	if st := rt.Stats(); st.Restarts != int64(len(at)) {
		t.Fatalf("%q: %d of %d crashes fired", spec, st.Restarts, len(at))
	}
	return *rt.Stats()
}

// TestCrashRecoveryMidExpandRetain kills the controller while a
// retaining Expand's migration reads are in flight: the epoch stamp must
// drop every stale re-placement write, and the recovered mapping state
// must equal what a fresh controller recovers from the same log.
func TestCrashRecoveryMidExpandRetain(t *testing.T) {
	recs := randomWorkload(29, 2500, 12000)
	eng := sim.NewEngine()
	c, arr := newTestCRAID(eng, 64)
	log := keepImage(c)
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
	n2, err := c2.CrashRestart(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n {
		t.Fatalf("restart recovered %d mappings, a fresh controller %d", n, n2)
	}
	if !reflect.DeepEqual(c.mon.table.DirtyMappings(), c2.mon.table.DirtyMappings()) {
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
	if c.mon.table.Len() != c2.mon.table.Len() ||
		!reflect.DeepEqual(c.mon.table.DirtyMappings(), c2.mon.table.DirtyMappings()) {
		t.Fatal("phase-2 mapping state diverged between crash survivor and control")
	}
}
