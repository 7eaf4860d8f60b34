package experiments

import (
	"fmt"

	"craid/internal/sim"
)

// FaultRow is one failure experiment: the same workload replayed
// healthy and under a fault plan, with the degraded-window KPIs and the
// monitor-interference deltas the comparison yields.
type FaultRow struct {
	Name string // experiment label
	Spec string // the fault plan replayed

	Healthy RunResult // baseline, no plan installed
	Faulted RunResult // same config + Spec

	// Interference: response-time inflation of the faulted run over the
	// healthy baseline, whole-run means (1.0 = no interference).
	ReadMeanX  float64
	WriteMeanX float64

	// Degraded-window latencies and the rebuild KPI, copied out of the
	// faulted run for table printing.
	DegReadMean, DegReadP99   sim.Time
	DegWriteMean, DegWriteP99 sim.Time
	RebuildDuration           sim.Time

	// Compound-failure KPIs, copied out of the faulted run's
	// FaultStats for the double-fault / upgrade / storm rows.
	Restarts        int64    // crash-restart cycles survived
	RebuildRestarts int64    // rebuilds a crash restarted from row zero
	RebuildLostRows int64    // rows unrecoverable mid-rebuild
	LostExtents     int64    // extents beyond redundancy
	Upgrades        int64    // expand events fired
	ExpandMigrated  int64    // blocks a retain upgrade moved
	ExpandWriteback int64    // dirty blocks an invalidating upgrade flushed
	UpgradeLatency  sim.Time // expand instant → background-I/O drain
}

// RunFault replays cfg twice — once healthy, once with spec installed —
// and reports the comparison. cfg.FaultSpec is overwritten by spec; all
// other knobs (strategy, scale, cache size) apply to both runs,
// so the delta isolates the fault fabric's effect.
func (r *Runner) RunFault(name string, cfg RunConfig, spec string) (FaultRow, error) {
	healthy := cfg
	healthy.FaultSpec = ""
	cfg.FaultSpec = spec
	results, err := r.RunAll([]RunConfig{healthy, cfg})
	if err != nil {
		return FaultRow{}, err
	}
	return faultRowFrom(name, spec, results[0], results[1]), nil
}

// faultRowFrom assembles the comparison row of a faulted run against
// its healthy baseline.
func faultRowFrom(name, spec string, healthy, faulted RunResult) FaultRow {
	row := FaultRow{
		Name:            name,
		Spec:            spec,
		Healthy:         healthy,
		Faulted:         faulted,
		ReadMeanX:       timeRatio(faulted.ReadMean, healthy.ReadMean),
		WriteMeanX:      timeRatio(faulted.WriteMean, healthy.WriteMean),
		DegReadMean:     faulted.DegReadMean,
		DegReadP99:      faulted.DegReadP99,
		DegWriteMean:    faulted.DegWriteMean,
		DegWriteP99:     faulted.DegWriteP99,
		RebuildDuration: faulted.RebuildDuration,
	}
	if fs := faulted.Fault; fs != nil {
		row.Restarts = fs.Restarts
		row.RebuildRestarts = fs.RebuildRestarts
		row.RebuildLostRows = fs.RebuildLostRows
		row.LostExtents = fs.LostExtents
		row.Upgrades = fs.Upgrades
		row.ExpandMigrated = fs.ExpandMigrated
		row.ExpandWriteback = fs.ExpandWriteback
		row.UpgradeLatency = fs.UpgradeLatency()
	}
	return row
}

// RunFaultFamily runs the standard failure experiments against cfg: a
// disk death with a later rebuild-under-load, a transient error
// window, a double fault (a second disk dying in a disjoint parity
// group while the first rebuild runs), and — for CRAID strategies —
// crash-restart, crash-during-rebuild, a crash storm, and online
// expansion under load in both invalidate and retain flavors. Every
// row compares against one shared healthy baseline run; the baseline
// and the plans are one RunAll batch.
func (r *Runner) RunFaultFamily(cfg RunConfig) ([]FaultRow, error) {
	dur := cfg.Duration
	if dur <= 0 {
		// The family wants the failure mid-run; without an explicit
		// duration the preset's full week applies and the fractions
		// below still land inside it only by accident. Keep it bounded.
		dur = 60 * sim.Second
		cfg.Duration = dur
	}
	type exp struct {
		name string
		spec string
	}
	exps := []exp{
		{"fail+rebuild", fmt.Sprintf("seed=1;fail:2@%s;rebuild:2@%s,rate=64",
			fmtSimTime(dur/4), fmtSimTime(dur/2))},
		{"transient", fmt.Sprintf("seed=1;transient:3@%s-%s,rate=0.02,lat=4",
			fmtSimTime(dur/4), fmtSimTime(3*dur/4))},
		// A second disk dies in a different parity group (the testbed's
		// archive groups are 10 wide) while the first one's rebuild is
		// pending, then rebuilds too: two degraded groups and two
		// overlapping rebuild walks contend with the monitor.
		{"double-fault", fmt.Sprintf("seed=1;fail:2@%s;rebuild:2@%s,rate=64;fail:12@%s;rebuild:12@%s,rate=64",
			fmtSimTime(dur/4), fmtSimTime(dur/2), fmtSimTime(3*dur/8), fmtSimTime(5*dur/8))},
	}
	if cfg.Strategy.IsCRAID() {
		exps = append(exps,
			exp{"crash-restart",
				fmt.Sprintf("seed=1;crash@%s", fmtSimTime(dur/2))},
			exp{"crash-in-rebuild",
				fmt.Sprintf("seed=1;fail:2@%s;rebuild:2@%s,rate=64;crash@%s",
					fmtSimTime(dur/8), fmtSimTime(dur/4), fmtSimTime(dur/2))},
			exp{"storm",
				fmt.Sprintf("seed=1;storm:crash@%s,n=3,every=%s",
					fmtSimTime(dur/4), fmtSimTime(dur/4))},
			exp{"expand", fmt.Sprintf("seed=1;expand@%s,disks=5", fmtSimTime(dur/2))},
			exp{"expand-retain", fmt.Sprintf("seed=1;expand@%s,disks=5,retain", fmtSimTime(dur/2))},
		)
	}
	cfg.FaultSpec = ""
	cfgs := []RunConfig{cfg}
	for _, e := range exps {
		cfg.FaultSpec = e.spec
		cfgs = append(cfgs, cfg)
	}
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]FaultRow, len(exps))
	for i, e := range exps {
		rows[i] = faultRowFrom(e.name, e.spec, results[0], results[1+i])
	}
	return rows, nil
}

func timeRatio(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fmtSimTime renders a sim.Time in fault-spec syntax (nanoseconds
// suffix keeps it exact).
func fmtSimTime(t sim.Time) string {
	return fmt.Sprintf("%dns", int64(t))
}
