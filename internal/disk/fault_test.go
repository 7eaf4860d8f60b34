package disk

import (
	"testing"

	"craid/internal/sim"
)

// runOneFault submits a request with the fate (reject, errs, latX),
// requires it to complete exactly once, through Done, and returns its
// response time.
func runOneFault(t *testing.T, eng *sim.Engine, d Device, op Op, block, count int64, reject, errs bool, latX float64) (rt sim.Time) {
	t.Helper()
	start := eng.Now()
	completions := 0
	d.Submit(&Request{
		Op: op, Block: block, Count: count, Reject: reject, Err: errs, LatencyX: latX,
		Done: func(at sim.Time) { completions++; rt = at - start },
	})
	eng.Run()
	if completions != 1 {
		t.Fatalf("request (%v %d+%d) completed %d times, want exactly once", op, block, count, completions)
	}
	return rt
}

// TestRejectedRequestCountsAndTimes pins the dead-disk contract on every
// model: a request submitted with Reject completes once, after the
// model's controller time, whatever the rest of its fate, counts in
// Rejected and in nothing else, and the next request without it is
// served normally.
func TestRejectedRequestCountsAndTimes(t *testing.T) {
	eng := sim.NewEngine()
	hdd, ssd := smallHDDConfig("hdd0"), MSRSSDConfig("ssd0")
	for _, tc := range []struct {
		d      Device
		reject sim.Time
	}{
		{NewNullDevice(eng, "null0", 10000), 0},
		{NewHDD(eng, hdd), hdd.ControllerOver},
		{NewSSD(eng, ssd), ssd.ControllerOver},
	} {
		d := tc.d
		if rt := runOneFault(t, eng, d, OpRead, 0, 4, true, false, 0); rt != tc.reject {
			t.Errorf("%s: rejected read took %v, want %v", d.Name(), rt, tc.reject)
		}
		if rt := runOneFault(t, eng, d, OpWrite, 8, 4, true, true, 4); rt != tc.reject {
			t.Errorf("%s: rejected erring write took %v, want %v", d.Name(), rt, tc.reject)
		}
		s := d.Stats()
		if s.Rejected != 2 || s.Errors != 0 || s.Reads != 0 || s.Writes != 0 || s.BusyTime != 0 {
			t.Errorf("%s: stats after rejections = %+v", d.Name(), s)
		}
		runOneFault(t, eng, d, OpRead, 0, 4, false, false, 0)
		if s.Reads != 1 || s.Rejected != 2 {
			t.Errorf("%s: read after the rejections not served: %+v", d.Name(), s)
		}
	}
}

// TestInjectedErrorCompletesThroughDone pins the transient-error path: a
// request carrying an error verdict completes once, through Done like
// any other, counts in Errors, and leaves the success counters alone.
func TestInjectedErrorCompletesThroughDone(t *testing.T) {
	eng := sim.NewEngine()
	devices := []Device{
		NewNullDevice(eng, "null0", 10000),
		NewHDD(eng, smallHDDConfig("hdd0")),
		NewSSD(eng, MSRSSDConfig("ssd0")),
	}
	for _, d := range devices {
		runOneFault(t, eng, d, OpRead, 0, 4, false, true, 1)
		if s := d.Stats(); s.Errors != 1 || s.Reads != 0 {
			t.Errorf("%s: stats after an error verdict = %+v, want 1 error", d.Name(), s)
		}
		runOneFault(t, eng, d, OpRead, 0, 4, false, false, 1)
		if s := d.Stats(); s.Errors != 1 || s.Reads != 1 || s.Rejected != 0 {
			t.Errorf("%s: stats = %+v, want 1 error + 1 read", d.Name(), s)
		}
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
	base := runOneFault(t, eng, d, OpRead, 0, 1, false, false, 0)
	if base != cfg.ReadLatency+cfg.ControllerOver {
		t.Fatalf("unscaled read took %v", base)
	}
	scaled := runOneFault(t, eng, d, OpRead, 0, 1, false, false, 4)
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
		return runOneFault(t, eng, d, OpRead, 4000, 8, false, false, latX)
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
	done := make([]int, len(writes))
	for i, w := range writes {
		d.Submit(&Request{Op: OpWrite, Block: w[0], Count: w[1], Err: i == 3,
			Done: func(sim.Time) { done[i]++ }})
	}
	if d.QueueDepth() != 2 {
		t.Fatalf("queue depth %d after the burst; the scenario needs the last two writes stalled", d.QueueDepth())
	}
	eng.Run()
	for i, w := range writes {
		if done[i] != 1 {
			t.Errorf("write %v: Done fired %d times, want once", w, done[i])
		}
	}
	if d.QueueDepth() != 0 {
		t.Errorf("queue depth %d after the engine drained", d.QueueDepth())
	}
	if s := d.Stats(); s.Errors != 1 || s.Writes != 4 {
		t.Errorf("stats count %d errors and %d writes, want 1 and 4", s.Errors, s.Writes)
	}
}
