package disk

import (
	"testing"

	"craid/internal/sim"
)

// runOneFault submits a request carrying the verdict (errs, latX) with
// separate Done/Fail callbacks and reports which one fired.
func runOneFault(t *testing.T, eng *sim.Engine, d Device, op Op, block, count int64, errs bool, latX float64) (failed bool, rt sim.Time) {
	t.Helper()
	start := eng.Now()
	completions := 0
	d.Submit(&Request{
		Op: op, Block: block, Count: count, Err: errs, LatencyX: latX,
		Done: func(at sim.Time) { completions++; rt = at - start },
		Fail: func(at sim.Time) { completions++; failed = true; rt = at - start },
	})
	eng.Run()
	if completions != 1 {
		t.Fatalf("request (%v %d+%d) completed %d times, want exactly once", op, block, count, completions)
	}
	return failed, rt
}

// TestFailedDeviceRejectsUntilRestored pins the dead-disk contract on
// every model: a Failed device rejects each submission through Fail,
// whatever its verdict, counts it in Rejected, and serves normally once
// restored.
func TestFailedDeviceRejectsUntilRestored(t *testing.T) {
	eng := sim.NewEngine()
	devices := []Device{
		NewNullDevice(eng, "null0", 10000),
		NewHDD(eng, smallHDDConfig("hdd0")),
		NewSSD(eng, MSRSSDConfig("ssd0")),
	}
	for _, d := range devices {
		f, ok := d.(Faultable)
		if !ok {
			t.Fatalf("%s does not implement Faultable", d.Name())
		}
		f.SetFailed(true)
		if !f.Failed() {
			t.Fatalf("%s: Failed() false after SetFailed(true)", d.Name())
		}
		if failed, _ := runOneFault(t, eng, d, OpRead, 0, 4, false, 0); !failed {
			t.Errorf("%s: read on a Failed device completed through Done", d.Name())
		}
		if failed, _ := runOneFault(t, eng, d, OpWrite, 8, 4, true, 0); !failed {
			t.Errorf("%s: write on a Failed device completed through Done", d.Name())
		}
		s := d.Stats()
		if s.Rejected != 2 || s.Errors != 0 || s.Reads != 0 || s.Writes != 0 {
			t.Errorf("%s: stats after rejections = %+v", d.Name(), s)
		}
		f.SetFailed(false)
		if failed, _ := runOneFault(t, eng, d, OpRead, 0, 4, false, 0); failed {
			t.Errorf("%s: restored device still rejecting", d.Name())
		}
		if s.Reads != 1 {
			t.Errorf("%s: restored read not counted: %+v", d.Name(), s)
		}
	}
}

// TestInjectedErrorCompletesThroughFail pins the transient-error path:
// a request carrying an error verdict completes through Fail, counts in
// Errors, and leaves the success counters alone.
func TestInjectedErrorCompletesThroughFail(t *testing.T) {
	eng := sim.NewEngine()
	devices := []Device{
		NewNullDevice(eng, "null0", 10000),
		NewHDD(eng, smallHDDConfig("hdd0")),
		NewSSD(eng, MSRSSDConfig("ssd0")),
	}
	for _, d := range devices {
		if failed, _ := runOneFault(t, eng, d, OpRead, 0, 4, true, 1); !failed {
			t.Errorf("%s: fail verdict completed through Done", d.Name())
		}
		if failed, _ := runOneFault(t, eng, d, OpRead, 0, 4, false, 1); failed {
			t.Errorf("%s: pass verdict completed through Fail", d.Name())
		}
		s := d.Stats()
		if s.Errors != 1 || s.Reads != 1 || s.Rejected != 0 {
			t.Errorf("%s: stats = %+v, want 1 error + 1 read", d.Name(), s)
		}
	}
}

// TestFaultFallsBackToDone pins that fault-unaware callers (no Fail
// callback) still observe exactly one completion on errors and
// rejections.
func TestFaultFallsBackToDone(t *testing.T) {
	eng := sim.NewEngine()
	d := NewNullDevice(eng, "null0", 10000)
	completions := 0
	d.Submit(&Request{Op: OpRead, Block: 0, Count: 1, Err: true, Done: func(sim.Time) { completions++ }})
	eng.Run()
	if completions != 1 {
		t.Fatalf("error verdict with nil Fail: %d completions through Done, want 1", completions)
	}
	d.SetFailed(true)
	d.Submit(&Request{Op: OpRead, Block: 0, Count: 1, Done: func(sim.Time) { completions++ }})
	eng.Run()
	if completions != 2 {
		t.Fatalf("rejection with nil Fail: %d total completions, want 2", completions)
	}
}

// TestInjectorLatencyMultiplierScalesService pins the latency-stretch
// half of a transient window on the SSD's deterministic service model:
// per-page latency scales by latX while controller overhead does not.
func TestInjectorLatencyMultiplierScalesService(t *testing.T) {
	eng := sim.NewEngine()
	cfg := SSDConfig{
		Name: "ssd0", CapacityBlocks: 10000, Channels: 1,
		ReadLatency:    100 * sim.Microsecond,
		WriteLatency:   200 * sim.Microsecond,
		ControllerOver: 20 * sim.Microsecond,
	}
	d := NewSSD(eng, cfg)
	_, base := runOneFault(t, eng, d, OpRead, 0, 1, false, 0)
	if base != cfg.ReadLatency+cfg.ControllerOver {
		t.Fatalf("unscaled read took %v", base)
	}
	_, scaled := runOneFault(t, eng, d, OpRead, 0, 1, false, 4)
	if want := 4*cfg.ReadLatency + cfg.ControllerOver; scaled != want {
		t.Fatalf("latX=4 read took %v, want %v", scaled, want)
	}
}

// TestInjectorLatencyMultiplierSlowsHDD is the same property on the
// mechanical model, where the exact service time depends on geometry:
// the stretched request is strictly slower.
func TestInjectorLatencyMultiplierSlowsHDD(t *testing.T) {
	cfg := smallHDDConfig("hdd0")
	cfg.CacheSegments = 0
	cfg.WriteCacheBlocks = 0
	run := func(latX float64) sim.Time {
		eng := sim.NewEngine()
		d := NewHDD(eng, cfg)
		_, rt := runOneFault(t, eng, d, OpRead, 4000, 8, false, latX)
		return rt
	}
	base, stretched := run(1), run(4)
	if stretched <= base {
		t.Fatalf("latX=4 read (%v) not slower than unscaled (%v)", stretched, base)
	}
}

// TestHDDStalledTransientWriteCompletesOnce is the regression for the
// re-entrant stall walk that crashed craidbench -table fault -budget 12.
// Two overlapping writes merge into one dirty range but count their
// blocks twice, so the last destage ends with phantom dirty blocks and
// no range left. The stalled write admitted at that moment draws a
// transient error: it is absorbed without adding a range, kick finds
// dirty blocks with nothing to destage, clears them and admits stalled
// writes — from inside the walk that is admitting them. The nested walk
// used to start over at the write in hand (failing it twice) and shrink
// the list under the outer one (slice bounds out of range [1:0]).
func TestHDDStalledTransientWriteCompletesOnce(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallHDDConfig("hdd0")
	cfg.WriteCacheBlocks = 128
	d := NewHDD(eng, cfg)
	// The 4th write fails; the rest succeed.
	writes := [][2]int64{
		{100000, 8}, // starts destaging at once, so the next two wait and merge
		{0, 64}, {0, 16},
		{200000, 80}, // stalls; fits only beside the 16 phantom blocks; fails
		{300000, 70}, // stalls behind it
	}
	done, failed := make([]int, len(writes)), make([]int, len(writes))
	for i, w := range writes {
		d.Submit(&Request{Op: OpWrite, Block: w[0], Count: w[1], Err: i == 3,
			Done: func(sim.Time) { done[i]++ },
			Fail: func(sim.Time) { failed[i]++ }})
	}
	if d.QueueDepth() != 2 {
		t.Fatalf("queue depth %d after the burst; the scenario needs the last two writes stalled", d.QueueDepth())
	}
	eng.Run()
	for i, w := range writes {
		wantDone, wantFail := 1, 0
		if i == 3 {
			wantDone, wantFail = 0, 1
		}
		if done[i] != wantDone || failed[i] != wantFail {
			t.Errorf("write %v: Done fired %d times and Fail %d, want %d and %d",
				w, done[i], failed[i], wantDone, wantFail)
		}
	}
	if d.QueueDepth() != 0 {
		t.Errorf("queue depth %d after the engine drained", d.QueueDepth())
	}
	if s := d.Stats(); s.Errors != 1 || s.Writes != 4 {
		t.Errorf("stats count %d errors and %d writes, want 1 and 4", s.Errors, s.Writes)
	}
}
