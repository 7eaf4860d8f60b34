package experiments

import (
	"strings"
	"testing"

	"craid/internal/sim"
)

func faultTestConfig() RunConfig {
	return RunConfig{
		Trace: "wdev", Scale: ScaleFor("wdev", 0.05),
		Duration: 60 * sim.Second, Strategy: CRAID5, PCPct: 0.008,
	}
}

// TestRunFaultSpecDeterministic pins the experiment-level replay
// contract: the same config + fault spec yields bit-identical fault
// counters and KPIs on every run.
func TestRunFaultSpecDeterministic(t *testing.T) {
	cfg := faultTestConfig()
	cfg.FaultSpec = "seed=7;transient:3@5s-30s,rate=0.02,lat=4;fail:2@15s;rebuild:2@25s,rate=64"
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fault == nil || b.Fault == nil {
		t.Fatal("fault KPIs not populated")
	}
	if a.Fault.Failures != 1 || a.Fault.RebuildRows == 0 {
		t.Fatalf("plan did not exercise the fabric: %+v", a.Fault)
	}
	if a.Fault.DegradedReads+a.Fault.DegradedWrites == 0 {
		t.Fatal("no degraded traffic during the failure window")
	}
	if *a.Fault != *b.Fault {
		t.Errorf("fault stats diverged between identical runs:\n  %+v\n  %+v", a.Fault, b.Fault)
	}
	if a.Requests != b.Requests || a.ReadMean != b.ReadMean || a.WriteMean != b.WriteMean {
		t.Error("replay KPIs diverged between identical runs")
	}
	if a.DegReadMean != b.DegReadMean || a.DegReadP99 != b.DegReadP99 ||
		a.RebuildDuration != b.RebuildDuration {
		t.Error("degraded/rebuild KPIs diverged between identical runs")
	}
}

// TestRunFaultCrashRestart pins the crash wiring: a crash plan on a
// CRAID strategy restarts once, recovering from the auto-created
// in-memory log mirror; on a plain RAID strategy it is rejected up
// front.
func TestRunFaultCrashRestart(t *testing.T) {
	cfg := faultTestConfig()
	cfg.FaultSpec = "seed=1;crash@30s"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Restarts != 1 {
		t.Fatalf("crash did not fire: %+v", res.Fault)
	}

	cfg.Strategy = RAID5
	cfg.PCPct = 0
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "CRAID") {
		t.Fatalf("crash plan on RAID-5 accepted: %v", err)
	}
}

// TestTransientDuringRebuildRetries is the regression for errors on a
// disk being rebuilt: the array routes client I/O around the disk until
// the walk completes, but the spare accepts I/O, so an error on a
// rebuild write is retried like any other. A retry used to give up
// while the disk was routed around, which counted 337 of this plan's
// 719 transients as permanent at once.
func TestTransientDuringRebuildRetries(t *testing.T) {
	res, err := Run(RunConfig{
		Trace: "wdev", Scale: 0.05, Strategy: CRAID5, PCPct: 0.008, Policy: "WLRU",
		FaultSpec: "seed=1;fail:3@1h;rebuild:3@2h,rate=64;transient:3@2h-150h,rate=0.05",
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fault
	if f == nil || f.Transients == 0 || f.RebuildRows == 0 {
		t.Fatalf("plan did not put errors on the rebuild: %+v", f)
	}
	if f.Retries+f.Permanent != f.Transients || f.Permanent != 0 {
		t.Errorf("%d transients: %d retried, %d permanent; want every one retried", f.Transients, f.Retries, f.Permanent)
	}
}

// TestRunFaultRowComparesHealthyBaseline pins FaultRow's shape: the
// healthy run carries no fault KPIs, the faulted run does, and the
// interference ratios divide the faulted means by the healthy ones.
func TestRunFaultRowComparesHealthyBaseline(t *testing.T) {
	healthy := faultTestConfig()
	faulted := healthy
	faulted.FaultSpec = "seed=1;fail:2@15s;rebuild:2@25s,rate=64"
	res, err := new(Runner).RunAll([]RunConfig{healthy, faulted})
	if err != nil {
		t.Fatal(err)
	}
	row := FaultRow{Name: "fail+rebuild", Healthy: res[0], Faulted: res[1]}
	if row.Healthy.Fault != nil {
		t.Error("healthy baseline carries fault stats")
	}
	if row.Healthy.Cfg.FaultSpec != "" || row.Faulted.Cfg.FaultSpec != faulted.FaultSpec {
		t.Errorf("plans replayed: healthy %q, faulted %q; want none and %q",
			row.Healthy.Cfg.FaultSpec, row.Faulted.Cfg.FaultSpec, faulted.FaultSpec)
	}
	if row.Faulted.Fault == nil || row.Faulted.Fault.Failures != 1 {
		t.Fatalf("faulted run stats: %+v", row.Faulted.Fault)
	}
	if row.ReadMeanX() <= 0 || row.WriteMeanX() <= 0 {
		t.Errorf("interference ratios not populated: read %.3f write %.3f",
			row.ReadMeanX(), row.WriteMeanX())
	}
	if want := float64(res[1].ReadMean) / float64(res[0].ReadMean); row.ReadMeanX() != want {
		t.Errorf("ReadMeanX = %v, want faulted/healthy = %v", row.ReadMeanX(), want)
	}
	if row.Faulted.RebuildDuration == 0 {
		t.Error("faulted run has no rebuild duration")
	}
}

// TestRunFaultFamilyCRAID runs the standard failure family end to end
// on a small workload: fail+rebuild, transient and double-fault rows,
// plus the CRAID-only crash-restart, crash-in-rebuild, storm and both
// expansion rows — one healthy baseline shared by all of them.
func TestRunFaultFamilyCRAID(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full replays")
	}
	cfg := faultTestConfig()
	cfg.Scale = ScaleFor("wdev", 0.02)
	rows, err := new(Runner).RunFaultFamily(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("family produced %d rows, want 8 for a CRAID strategy", len(rows))
	}
	byName := map[string]FaultRow{}
	specs := map[string]bool{}
	for i, r := range rows {
		byName[r.Name] = r
		if i > 0 && r.Healthy.ReadMean != rows[0].Healthy.ReadMean {
			t.Errorf("row %q re-ran the healthy baseline", r.Name)
		}
		if spec := r.Faulted.Cfg.FaultSpec; spec == "" || specs[spec] || r.Healthy.Cfg.FaultSpec != "" {
			t.Errorf("row %q: faulted plan %q, healthy plan %q; want a plan of its own and none", r.Name, spec, r.Healthy.Cfg.FaultSpec)
		}
		specs[r.Faulted.Cfg.FaultSpec] = true
	}
	if r := byName["fail+rebuild"]; r.Faulted.Fault == nil || r.Faulted.Fault.RebuildRows == 0 {
		t.Errorf("fail+rebuild row did not rebuild: %+v", r.Faulted.Fault)
	}
	// The transient row's error count is a seeded draw over however
	// little traffic hits the windowed device at this tiny scale — it
	// may legitimately be zero, so only the wiring is asserted here
	// (the retry machinery is pinned in internal/core).
	if r := byName["transient"]; r.Faulted.Fault == nil {
		t.Error("transient row missing fault KPIs")
	}
	if r := byName["double-fault"]; r.Faulted.Fault == nil ||
		r.Faulted.Fault.Failures != 2 || r.Faulted.Fault.LostExtents != 0 || r.Faulted.Fault.RebuildLostRows != 0 {
		t.Errorf("double-fault row: %+v", r.Faulted.Fault)
	}
	if r := byName["crash-restart"]; r.Faulted.Fault == nil || r.Faulted.Fault.Restarts != 1 {
		t.Errorf("crash-restart row did not restart: %+v", r.Faulted.Fault)
	}
	if r := byName["crash-in-rebuild"]; r.Faulted.Fault == nil || r.Faulted.Fault.Restarts != 1 ||
		r.Faulted.Fault.RebuildRows == 0 {
		t.Errorf("crash-in-rebuild row: %+v", r.Faulted.Fault)
	}
	if f := byName["storm"].Faulted.Fault; f == nil || f.Restarts != 3 {
		t.Errorf("storm row: %+v, want 3 restarts", f)
	}
	for _, name := range []string{"expand", "expand-retain"} {
		if f := byName[name].Faulted.Fault; f == nil || f.Upgrades != 1 {
			t.Errorf("%s row: %+v, want 1 upgrade", name, f)
		}
	}
}

// TestRunFaultDoubleFaultDisjointGroups pins the experiment-level
// double-fault contract on the 50-disk testbed: a second death in a
// different 10-wide parity group while the first rebuild is pending
// stays within redundancy — both devices rebuild, nothing is lost.
func TestRunFaultDoubleFaultDisjointGroups(t *testing.T) {
	cfg := faultTestConfig()
	cfg.FaultSpec = "seed=1;fail:2@15s;rebuild:2@30s,rate=64;fail:12@22s;rebuild:12@37s,rate=64"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Fault
	if fs == nil || fs.Failures != 2 {
		t.Fatalf("double fault did not fire: %+v", fs)
	}
	if fs.LostExtents != 0 || fs.RebuildLostRows != 0 {
		t.Errorf("disjoint-group double fault lost data: %+v", fs)
	}
	if fs.RebuildRows == 0 {
		t.Error("no rebuild rows walked")
	}
}

// TestRunFaultStormAndExpandUnderLoad pins the new CRAID-only event
// kinds through the experiment runner: a crash storm survives every
// cycle, and a mid-replay expansion fires with its KPIs populated.
func TestRunFaultStormAndExpandUnderLoad(t *testing.T) {
	cfg := faultTestConfig()
	cfg.FaultSpec = "seed=1;storm:crash@20s,n=3,every=10s"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Restarts != 3 {
		t.Fatalf("storm did not fire all cycles: %+v", res.Fault)
	}

	cfg.FaultSpec = "seed=1;expand@30s,disks=5,retain"
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Fault
	if fs == nil || fs.Upgrades != 1 {
		t.Fatalf("expand did not fire: %+v", fs)
	}
	if fs.ExpandStart != 30*sim.Second || fs.ExpandEnd < fs.ExpandStart {
		t.Errorf("upgrade window not stamped: start %v end %v", fs.ExpandStart, fs.ExpandEnd)
	}
}
