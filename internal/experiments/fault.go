package experiments

import (
	"fmt"

	"craid/internal/sim"
)

// FaultRow is one failure experiment: the same workload replayed
// healthy and under a fault plan. The degraded-window latencies and the
// rebuild KPI are the faulted run's; the compound-failure counters are
// its Fault stats.
type FaultRow struct {
	Name string // experiment label

	Healthy RunResult // baseline, no plan installed
	Faulted RunResult // same config + the plan in Faulted.Cfg.FaultSpec
}

// ReadMeanX is the read interference: the faulted run's whole-run mean
// read response time over the healthy baseline's (1.0 = none).
func (row FaultRow) ReadMeanX() float64 {
	return timeRatio(row.Faulted.ReadMean, row.Healthy.ReadMean)
}

// WriteMeanX is ReadMeanX for writes.
func (row FaultRow) WriteMeanX() float64 {
	return timeRatio(row.Faulted.WriteMean, row.Healthy.WriteMean)
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
		rows[i] = FaultRow{Name: e.name, Healthy: results[0], Faulted: results[1+i]}
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
