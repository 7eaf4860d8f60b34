// Command craidbench regenerates the CRAID paper's tables and figures
// from the simulator and prints them in paper-like form.
//
// Usage:
//
//	craidbench                  # everything at the default budget
//	craidbench -table 2         # one table (1-6, "migration", "pclevel", "rebalance", "fault")
//	craidbench -figure 4        # one figure (1, 4, 5, 6, 7)
//	craidbench -budget 2.0      # GB of replayed traffic per trace
//	craidbench -trace wdev      # restrict figures to one trace
//	craidbench -parallel 4      # concurrent simulations (default: all cores)
//	craidbench -cache ~/.cache/craid     # reuse results a previous run of this build computed
//	craidbench -cpuprofile cpu.pb.gz -table 2   # attach pprof evidence
//
// The -budget flag scales each workload so roughly that many gigabytes
// of traffic replay per simulation (volumes and disk capacities shrink
// together, preserving the paper's ratios). Larger budgets sharpen the
// curves at proportional CPU cost; the defaults complete in minutes.
//
// The -parallel flag bounds how many independent simulation cells run
// concurrently (each cell owns a private simulation engine, so the
// matrix is embarrassingly parallel). Results are identical at every
// parallelism level.
//
// The -cache flag names a directory of results, content-addressed by
// cell configuration and by the identity of this binary: a re-run by
// the same build reads the cells it has already computed instead of
// simulating them, prints byte-identical tables, and reports the split
// on stderr ("cache: 35 hits, 0 computed"). Delete the directory to
// reclaim the space.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the whole run, so performance PRs can attach before/after evidence
// gathered from exactly the paper workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/metrics"
	"craid/internal/prof"
	"craid/internal/workload"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 1-6, 'migration', 'pclevel', 'rebalance' or 'fault'")
	figure := flag.String("figure", "", "regenerate one figure: 1, 4, 5, 6 or 7")
	budget := flag.Float64("budget", 0.5, "replayed GB per trace per simulation")
	traceName := flag.String("trace", "", "restrict figures to one trace")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations")
	cacheDir := flag.String("cache", "",
		"reuse (and store) simulation results in this directory; empty = compute everything")
	startProfiles := prof.Flags(flag.CommandLine)
	flag.Parse()
	// Every table would print its header and then fail, one error per
	// table. The comparison is written so that NaN fails it too.
	if !(*budget > 0) {
		fatal(fmt.Errorf("-budget %v: want a positive number of GB", *budget))
	}
	if *traceName != "" {
		// Every printer below would otherwise show its header, and some
		// made-up rows, before the first cell for the trace failed.
		if _, err := workload.Preset(*traceName); err != nil {
			fatal(err)
		}
	}
	cells := &experiments.Runner{Parallel: max(*parallel, 1)}
	if *cacheDir != "" {
		store, err := experiments.OpenStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cells.Store = store
	}

	stopProfiles, err := startProfiles()
	if err != nil {
		fatal(err)
	}

	r := runner{
		cells:  cells,
		budget: *budget, trace: *traceName,
		memo: map[string][]experiments.RunResult{},
	}
	switch {
	case *table == "" && *figure == "":
		r.all()
	default:
		if *table != "" {
			r.table(*table)
		}
		if *figure != "" {
			r.figure(*figure)
		}
	}

	if err := stopProfiles(); err != nil { // flush before any exit path
		fmt.Fprintln(os.Stderr, "craidbench:", err)
	}
	if cells.Store != nil {
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d computed\n", cells.Hits.Load(), cells.Computed.Load())
	}
	if r.failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "craidbench:", err)
	os.Exit(1)
}

type runner struct {
	cells  *experiments.Runner // every simulation runs through it
	budget float64
	trace  string
	failed bool

	// Matrices more than one table or figure prints from, computed once
	// (see matrix): Tables 2+3, Table 4 + Figures 4+6 per trace, and
	// Table 6 + Figure 7 per trace.
	memo map[string][]experiments.RunResult
}

// matrix returns the results stored under key, running run for them
// the first time. Only a run that succeeds is stored, so a failed one
// runs, and fails, again for the next table that asks.
func (r *runner) matrix(key string, run func() ([]experiments.RunResult, error)) ([]experiments.RunResult, error) {
	if res, ok := r.memo[key]; ok {
		return res, nil
	}
	res, err := run()
	if err == nil {
		r.memo[key] = res
	}
	return res, err
}

func (r *runner) check(err error) bool {
	if err != nil {
		fmt.Fprintln(os.Stderr, "craidbench:", err)
		r.failed = true
		return false
	}
	return true
}

func (r *runner) traces() []string {
	if r.trace != "" {
		return []string{r.trace}
	}
	return workload.PresetNames()
}

func (r *runner) all() {
	for _, t := range []string{"1", "2", "3", "4", "5", "6", "migration", "pclevel", "rebalance", "fault"} {
		r.table(t)
	}
	for _, f := range []string{"1", "4", "5", "6", "7"} {
		r.figure(f)
	}
}

func (r *runner) scaleFor(trace string) float64 {
	return experiments.ScaleFor(trace, r.budget)
}

func (r *runner) table(which string) {
	switch which {
	case "1":
		r.table1()
	case "2", "3":
		r.tables23(which)
	case "4":
		r.table4()
	case "5":
		r.table5()
	case "6":
		r.table6()
	case "migration":
		r.migration()
	case "pclevel":
		r.pcLevel()
	case "rebalance":
		r.rebalance()
	case "fault":
		r.fault()
	default:
		r.check(fmt.Errorf("unknown table %q", which))
	}
}

func (r *runner) figure(which string) {
	switch which {
	case "1":
		r.figure1()
	case "4", "6":
		r.figures46(which)
	case "5":
		r.figure5()
	case "7":
		r.figure7()
	default:
		r.check(fmt.Errorf("unknown figure %q", which))
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func (r *runner) table1() {
	header("Table 1: summary statistics of the seven workloads (scaled)")
	fmt.Printf("%-12s %9s %9s %9s %9s %6s %9s %8s\n",
		"trace", "readGB", "uniqR_GB", "writeGB", "uniqW_GB", "R/W", "totalGB", "top20%")
	rows, err := experiments.Table1(r.budget)
	if !r.check(err) {
		return
	}
	for _, name := range r.traces() {
		for _, row := range rows {
			if row.Trace != name {
				continue
			}
			s := row.Summary
			fmt.Printf("%-12s %9.2f %9.2f %9.2f %9.2f %6.2f %9.2f %7.2f%%\n",
				row.Trace, s.ReadGB, s.UniqueReadGB, s.WriteGB, s.UniqueWriteGB,
				s.RWRatio, s.TotalGB, 100*s.Top20Share)
		}
	}
}

func (r *runner) tables23(which string) {
	if which == "2" {
		header("Table 2: hit ratio (%) per cache-management algorithm")
	} else {
		header("Table 3: replacement ratio (%) per cache-management algorithm")
	}
	fmt.Printf("%-12s", "trace")
	for _, p := range cache.Names() {
		fmt.Printf(" %8s", p)
	}
	fmt.Println()
	results, err := r.matrix("tables23", func() ([]experiments.RunResult, error) {
		return r.cells.Tables2and3(r.budget)
	})
	if !r.check(err) {
		return
	}
	for _, name := range r.traces() {
		vals := map[string]float64{}
		for _, res := range results {
			if res.Cfg.Trace != name {
				continue
			}
			if which == "2" {
				vals[res.Cfg.Policy] = res.CRAID.OverallHitRatio()
			} else {
				vals[res.Cfg.Policy] = res.CRAID.ReplacementRatio()
			}
		}
		fmt.Printf("%-12s", name)
		for _, p := range cache.Names() {
			fmt.Printf(" %7.2f%%", 100*vals[p])
		}
		fmt.Println()
	}
}

func (r *runner) sweep(name string) ([]experiments.RunResult, error) {
	return r.matrix("sweep/"+name, func() ([]experiments.RunResult, error) {
		return r.cells.ResponseTimeSweep(name, r.scaleFor(name), nil)
	})
}

func (r *runner) figures46(which string) {
	if which == "4" {
		header("Figure 4: mean read response time (ms) vs cache size (% per disk)")
	} else {
		header("Figure 6: mean write response time (ms) vs cache size (% per disk)")
	}
	for _, name := range r.traces() {
		sweep, err := r.sweep(name)
		if !r.check(err) {
			return
		}
		fmt.Printf("\n[%s]\n%-13s", name, "strategy")
		for _, pct := range experiments.PCSizes(name) {
			fmt.Printf(" %8.3f", pct)
		}
		fmt.Println()
		some := sampled(sweep, which == "4")
		for _, strat := range experiments.Strategies() {
			fmt.Printf("%-13s", strat)
			for _, pct := range experiments.PCSizes(name) {
				res, ok := findPoint(sweep, strat, pct)
				if !ok {
					fmt.Printf(" %8s", "-")
					continue
				}
				v := res.ReadMean
				if which == "6" {
					v = res.WriteMean
				}
				fmt.Print(" " + cell("%8.3f", v.Milliseconds(), some))
			}
			fmt.Println()
		}
	}
}

// sampled reports whether a monitor in sweep counted a read (or written)
// block. All of a sweep replays one trace: if none did, no cell did.
func sampled(sweep []experiments.RunResult, read bool) bool {
	for _, res := range sweep {
		if c := res.CRAID; c != nil && (read && c.ReadBlocks > 0 || !read && c.WriteBlocks > 0) {
			return true
		}
	}
	return false
}

// cell formats v, or n/a in the same width if the cell has no sample.
func cell(format string, v float64, some bool) string {
	s := fmt.Sprintf(format, v)
	if !some {
		return fmt.Sprintf("%*s", len(s), "n/a")
	}
	return s
}

// findPoint returns strat's result at cache size pct. A baseline has
// one result, and it is shown at every size.
func findPoint(sweep []experiments.RunResult, strat experiments.Strategy, pct float64) (experiments.RunResult, bool) {
	for _, res := range sweep {
		if res.Cfg.Strategy == strat && (res.Cfg.PCPct == pct || !strat.IsCRAID()) {
			return res, true
		}
	}
	return experiments.RunResult{}, false
}

func (r *runner) table4() {
	header("Table 4: best hit ratio and worst eviction ratio (all simulations)")
	fmt.Printf("%-12s %10s %10s %12s %12s\n",
		"trace", "bestHit_R", "bestHit_W", "worstEvict_R", "worstEvict_W")
	for _, name := range r.traces() {
		sweep, err := r.sweep(name)
		if !r.check(err) {
			return
		}
		t4 := experiments.Table4(sweep)
		r, w := sampled(sweep, true), sampled(sweep, false)
		fmt.Printf("%-12s %s %s %s %s\n", name,
			cell("%9.2f%%", 100*t4.BestReadHit, r), cell("%9.2f%%", 100*t4.BestWriteHit, w),
			cell("%11.2f%%", 100*t4.WorstReadEvict, r), cell("%11.2f%%", 100*t4.WorstWriteEvict, w))
	}
}

func (r *runner) figure1() {
	header("Figure 1: block frequency CDFs and daily working-set overlap")
	for _, name := range r.traces() {
		res, err := experiments.Figure1(name, r.scaleFor(name))
		if !r.check(err) {
			return
		}
		fmt.Printf("\n[%s] freq:   ", name)
		for _, f := range res.Freqs {
			fmt.Printf(" %6d", f)
		}
		fmt.Printf("\n  read CDF:    ")
		printCDF(res.ReadCDF)
		fmt.Printf("\n  write CDF:   ")
		printCDF(res.WriteCDF)
		fmt.Printf("\n  overlap all: ")
		for _, v := range res.OverlapAll {
			fmt.Printf(" %5.1f%%", 100*v)
		}
		fmt.Printf("\n  overlap top20:")
		for _, v := range res.OverlapTop {
			fmt.Printf(" %5.1f%%", 100*v)
		}
		fmt.Println()
	}
}

// printCDF prints a frequency CDF's points, or n/a at each if it never
// leaves zero: no block was accessed at most 1000 times, which in these
// traces means none was accessed at all.
func printCDF(cdf []float64) {
	some := slices.ContainsFunc(cdf, func(v float64) bool { return v > 0 })
	for _, v := range cdf {
		fmt.Print(" " + cell("%6.3f", v, some))
	}
}

func (r *runner) figure5() {
	header("Figure 5: sequential access distribution (per-second quantiles)")
	traces := r.traces()
	if r.trace == "" {
		traces = []string{"cello99", "webusers"} // the paper's panels
	}
	for _, name := range traces {
		pct := experiments.PCSizes(name)[2]
		results, err := r.cells.Figure5(name, r.scaleFor(name), pct)
		if !r.check(err) {
			return
		}
		fmt.Printf("\n[%s] P_C = %.3f%%; quantiles 0%%..100%% of per-second seq fraction\n", name, pct)
		for _, res := range results {
			fmt.Printf("%-13s mean=%.3f  ", res.Cfg.Strategy, metrics.Mean(res.SeqFracs))
			for j := 0; j <= 10; j++ {
				fmt.Printf(" %5.2f", metrics.Quantile(res.SeqFracs, float64(j)/10))
			}
			fmt.Println()
		}
	}
}

func (r *runner) table5() {
	header("Table 5: ioqueue size and concurrent devices, wdev, P_C = 0.002%")
	results, err := r.cells.Table5(r.scaleFor("wdev"))
	if !r.check(err) {
		return
	}
	fmt.Printf("%-13s %10s %8s %8s %10s %8s %8s\n",
		"strategy", "IoqMean", "Ioq99", "IoqMax", "CdevMean", "Cdev99", "CdevMax")
	for _, res := range results {
		fmt.Printf("%-13s %10.2f %8d %8d %10.2f %8d %8d\n",
			res.Cfg.Strategy, res.QueueMean, res.QueueP99, res.QueueMax,
			res.ConcMean, res.ConcP99, res.ConcMax)
	}
}

func (r *runner) figure7() {
	header("Figure 7: workload distribution — CDF of per-second cv")
	traces := r.traces()
	if r.trace == "" {
		traces = []string{"deasna", "wdev"} // the paper's panels
	}
	for _, name := range traces {
		series, err := r.figure7Series(name)
		if !r.check(err) {
			return
		}
		fmt.Printf("\n[%s] cv grid:", name)
		for _, g := range experiments.CVGrid {
			fmt.Printf(" %5.2f", g)
		}
		fmt.Println()
		for _, res := range series {
			label := string(res.Cfg.Strategy)
			if res.Cfg.PCPct > 0 {
				label = fmt.Sprintf("%s@%.3f%%", res.Cfg.Strategy, res.Cfg.PCPct)
			}
			fmt.Printf("%-20s meanCV=%.3f ", label, metrics.Mean(res.CVs))
			for _, v := range metrics.CDF(res.CVs, experiments.CVGrid) {
				fmt.Printf(" %5.2f", v)
			}
			fmt.Println()
		}
	}
}

func (r *runner) table6() {
	header("Table 6: influence of P_C size on workload distribution")
	fmt.Printf("%-13s %10s %10s %10s %10s\n", "strategy", "bestPC%", "bestCV", "worstPC%", "worstCV")
	for _, name := range r.traces() {
		series, err := r.figure7Series(name)
		if !r.check(err) {
			return
		}
		fmt.Printf("[%s]\n", name)
		for _, row := range experiments.Table6(series) {
			fmt.Printf("%-13s %10.3f %10.3f %10.3f %10.3f\n",
				row.Strategy, row.BestPct, row.BestCV, row.WorstPct, row.WorstCV)
		}
	}
}

// figure7Series runs the extremes of the paper sweep (Table 6 shows
// best/worst, which land on the smallest/largest P_C).
func (r *runner) figure7Series(name string) ([]experiments.RunResult, error) {
	return r.matrix("cv/"+name, func() ([]experiments.RunResult, error) {
		sizes := experiments.PCSizes(name)
		return r.cells.Figure7(name, r.scaleFor(name), []float64{sizes[0], sizes[len(sizes)-1]})
	})
}

func (r *runner) migration() {
	header("Migration ablation: upgrade cost over the 10→50 schedule")
	rows, err := experiments.MigrationAblation(0.0128)
	if !r.check(err) {
		return
	}
	fmt.Printf("%-11s %11s %9s  %s\n", "strategy", "total moved", "final cv", "per-step fraction moved")
	for _, row := range rows {
		fmt.Printf("%-11s %10.2f%% %9.4f ", row.Strategy, 100*row.TotalFrac, row.FinalCV)
		for _, f := range row.StepsFrac {
			fmt.Printf(" %6.3f", f)
		}
		fmt.Println()
	}
}

func (r *runner) pcLevel() {
	header("Ablation: cache-partition redundancy level (wdev)")
	results, err := r.cells.AblationPCLevel("wdev", r.scaleFor("wdev"), 0.008)
	if !r.check(err) {
		return
	}
	fmt.Printf("%-8s %10s %10s %8s %8s\n", "P_C", "read(ms)", "write(ms)", "hitR", "hitW")
	for _, res := range results {
		fmt.Printf("%-8s %10.3f %10.3f %7.1f%% %7.1f%%\n",
			res.Cfg.PCLevel, res.ReadMean.Milliseconds(), res.WriteMean.Milliseconds(),
			100*res.CRAID.HitRatio(disk.OpRead), 100*res.CRAID.HitRatio(disk.OpWrite))
	}
}

// fault prints the failure family: every strategy replays the same
// wdev workload healthy and under each standard fault plan (single
// failures, a disjoint-group double fault, and — for CRAID — crash
// storms and online expansion under load), and the table shows the
// interference ratios (faulted/healthy mean response time) next to the
// degraded-window latencies and the compound-failure KPIs.
func (r *runner) fault() {
	header("Fault family: healthy-vs-faulted interference, degraded-window and compound KPIs (wdev)")
	fmt.Printf("%-13s %-16s %7s %7s %10s %10s %10s %10s %11s %5s %5s %8s\n",
		"strategy", "experiment", "readX", "writeX",
		"degRd(ms)", "degRdP99", "degWr(ms)", "degWrP99", "rebuild(s)",
		"lost", "rst", "upg(ms)")
	for _, strat := range experiments.Strategies() {
		cfg := experiments.RunConfig{
			Trace: "wdev", Scale: r.scaleFor("wdev"), Strategy: strat,
		}
		if strat.IsCRAID() {
			cfg.PCPct = 0.008
		}
		rows, err := r.cells.RunFaultFamily(cfg)
		if !r.check(err) {
			return
		}
		for _, row := range rows {
			res, f := row.Faulted, row.Faulted.Fault
			fmt.Printf("%-13s %-16s %6.2fx %6.2fx %10.3f %10.3f %10.3f %10.3f %11.2f %5d %5d %8.3f\n",
				strat, row.Name, row.ReadMeanX(), row.WriteMeanX(),
				res.DegReadMean.Milliseconds(), res.DegReadP99.Milliseconds(),
				res.DegWriteMean.Milliseconds(), res.DegWriteP99.Milliseconds(),
				res.RebuildDuration.Seconds(),
				f.RebuildLostRows, f.Restarts, f.UpgradeLatency().Milliseconds())
		}
	}
}

func (r *runner) rebalance() {
	header("Ablation: expansion strategy, 38→50 disks mid-trace (wdev)")
	rows, err := experiments.AblationRebalance("wdev", r.scaleFor("wdev"), 0.008)
	if !r.check(err) {
		return
	}
	fmt.Printf("%-11s %9s %9s %9s %10s %10s %8s %9s\n",
		"mode", "writeback", "migrated", "dropped", "preRd(ms)", "postRd(ms)", "postHit", "newDiskIO")
	for _, row := range rows {
		fmt.Printf("%-11s %9d %9d %9d %10.3f %10.3f %7.1f%% %9d\n",
			row.Mode, row.Upgrade.DirtyWriteback, row.Upgrade.Migrated, row.Upgrade.Invalidated,
			row.PreReadMean.Milliseconds(), row.PostReadMean.Milliseconds(),
			100*row.PostHitRatio, row.NewDiskReads+row.NewDiskWrites)
	}
}
