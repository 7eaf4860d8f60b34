package experiments

import (
	"craid/internal/analysis"
	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/migrate"
	"craid/internal/workload"
)

// --- Table 1 + Figure 1 ---

// Table1Row is one workload's summary statistics.
type Table1Row struct {
	Trace   string
	Summary analysis.Summary
}

// Table1 regenerates the trace summary table, scaling each workload to
// roughly budgetGB of replayed traffic (see ScaleFor).
func Table1(budgetGB float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range workload.PresetNames() {
		a, err := analyzeTrace(name, ScaleFor(name, budgetGB))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Trace: name, Summary: a.Summary()})
	}
	return rows, nil
}

func analyzeTrace(name string, scale float64) (*analysis.Analyzer, error) {
	p, err := scaledPreset(name, scale)
	if err != nil {
		return nil, err
	}
	a := analysis.NewAnalyzer()
	if err := a.Run(workload.New(p)); err != nil {
		return nil, err
	}
	return a, nil
}

// Figure1Result holds one trace's Fig. 1 panels.
type Figure1Result struct {
	Trace      string
	Freqs      []int64   // frequency thresholds (x axis, top row)
	ReadCDF    []float64 // fraction of blocks with <= f read accesses
	WriteCDF   []float64
	OverlapAll []float64 // day d vs d+1 overlap, all blocks (bottom row)
	OverlapTop []float64 // same, top-20% blocks
}

// Figure1 regenerates both rows of Fig. 1 for one trace.
func Figure1(traceName string, scale float64) (Figure1Result, error) {
	a, err := analyzeTrace(traceName, scale)
	if err != nil {
		return Figure1Result{}, err
	}
	freqs := []int64{1, 2, 5, 10, 20, 50, 100, 500, 1000}
	return Figure1Result{
		Trace:      traceName,
		Freqs:      freqs,
		ReadCDF:    a.FreqCDF(disk.OpRead, freqs),
		WriteCDF:   a.FreqCDF(disk.OpWrite, freqs),
		OverlapAll: a.DailyOverlap(0),
		OverlapTop: a.DailyOverlap(0.20),
	}, nil
}

// --- Tables 2 & 3: cache partition management (§5.1) ---

// Tables2and3 evaluates every policy on every trace with a P_C of 0.1%
// of the weekly working set, using the instant disk model, exactly as
// §5.1 does. Each workload scales to roughly budgetGB of traffic. The
// trace × policy cells run concurrently (see Runner.RunAll); the results
// come back trace by trace in PresetNames order, policies in
// cache.Names order.
func (r *Runner) Tables2and3(budgetGB float64) ([]RunResult, error) {
	cfgs, err := tables2and3Configs(budgetGB)
	if err != nil {
		return nil, err
	}
	return r.RunAll(cfgs)
}

// tables2and3Configs returns Tables2and3's cells.
func tables2and3Configs(budgetGB float64) ([]RunConfig, error) {
	var cfgs []RunConfig
	for _, traceName := range workload.PresetNames() {
		scale := ScaleFor(traceName, budgetGB)
		p, err := scaledPreset(traceName, scale)
		if err != nil {
			return nil, err
		}
		gen := workload.New(p)
		pcBlocks := gen.DatasetBlocks() / 1000 // 0.1% of weekly WS
		if pcBlocks < 50 {
			pcBlocks = 50
		}
		for _, policy := range cache.Names() {
			cfgs = append(cfgs, RunConfig{
				Trace:    traceName,
				Scale:    scale,
				Strategy: CRAID5,
				Policy:   policy,
				Instant:  true,
				PCBlocks: pcBlocks,
			})
		}
	}
	return cfgs, nil
}

// --- Figures 4 & 6 + Table 4: response times over the P_C sweep ---

// sweepConfigs returns base at every strategy and cache size: each CRAID
// variant once per size, the plain baselines once at the first size,
// since they have no P_C. pcSizes nil uses the paper's sweep for
// base.Trace.
func sweepConfigs(base RunConfig, pcSizes []float64) []RunConfig {
	if pcSizes == nil {
		pcSizes = PCSizes(base.Trace)
	}
	var cfgs []RunConfig
	for _, strat := range Strategies() {
		sizes := pcSizes
		if !strat.IsCRAID() {
			sizes = pcSizes[:1]
		}
		for _, pct := range sizes {
			base.Strategy, base.PCPct = strat, pct
			cfgs = append(cfgs, base)
		}
	}
	return cfgs
}

// ResponseTimeSweep regenerates the Fig. 4 (reads) and Fig. 6 (writes)
// series for one trace: every strategy at every cache size (see
// sweepConfigs), run concurrently. pcSizes nil uses the paper's sweep
// for the trace.
func (r *Runner) ResponseTimeSweep(traceName string, scale float64, pcSizes []float64) ([]RunResult, error) {
	return r.RunAll(sweepConfigs(RunConfig{Trace: traceName, Scale: scale}, pcSizes))
}

// Table4Row aggregates a trace's best hit ratio and worst eviction
// ratio over all its sweep simulations.
type Table4Row struct {
	BestReadHit, BestWriteHit       float64
	WorstReadEvict, WorstWriteEvict float64
}

// Table4 derives the best/worst ratios from a trace's sweep, skipping
// the results with no monitor (the plain baselines).
func Table4(sweep []RunResult) Table4Row {
	var row Table4Row
	for _, res := range sweep {
		c := res.CRAID
		if c == nil {
			continue
		}
		row.BestReadHit = max(row.BestReadHit, c.HitRatio(disk.OpRead))
		row.BestWriteHit = max(row.BestWriteHit, c.HitRatio(disk.OpWrite))
		row.WorstReadEvict = max(row.WorstReadEvict, c.EvictionRatio(disk.OpRead))
		row.WorstWriteEvict = max(row.WorstWriteEvict, c.EvictionRatio(disk.OpWrite))
	}
	return row
}

// --- Figure 5: sequentiality ---

// Figure5 measures access sequentiality per strategy for one trace
// (the paper shows cello99 and webusers; any preset works): one result
// each for RAID-5, RAID-5+, CRAID-5 and CRAID-5+, whose SeqFracs are the
// per-second sequential fractions Fig. 5 plots the CDF of. Uses bursty
// arrivals so scan-like streams exist to be sequentialized.
func (r *Runner) Figure5(traceName string, scale, pcPct float64) ([]RunResult, error) {
	var cfgs []RunConfig
	for _, strat := range []Strategy{RAID5, RAID5Plus, CRAID5, CRAID5Plus} {
		cfgs = append(cfgs, RunConfig{
			Trace:    traceName,
			Scale:    scale,
			Strategy: strat,
			PCPct:    pcPct,
			Bursty:   true,
			TrackSeq: true,
		})
	}
	return r.RunAll(cfgs)
}

// --- Table 5: queues, SSD-dedicated vs full-HDD ---

// Table5 reproduces the wdev comparison of queue pressure between
// CRAID-5+ and CRAID-5+ssd (in that order) at P_C = 0.002% with bursty
// arrivals (queue dynamics need load).
func (r *Runner) Table5(scale float64) ([]RunResult, error) {
	return r.RunAll([]RunConfig{
		{Trace: "wdev", Scale: scale, Strategy: CRAID5Plus, PCPct: 0.002, Bursty: true},
		{Trace: "wdev", Scale: scale, Strategy: CRAID5PlusSSD, PCPct: 0.002, Bursty: true},
	})
}

// --- Figure 7 + Table 6: workload distribution ---

// CVGrid is the x-axis used for the Fig. 7 CDFs.
var CVGrid = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 6}

// Figure7 measures the workload-distribution uniformity for one trace:
// the sweep of ResponseTimeSweep, bursty and with each result's CVs
// holding the per-second cv samples Fig. 7 plots the CDF of.
func (r *Runner) Figure7(traceName string, scale float64, pcSizes []float64) ([]RunResult, error) {
	return r.RunAll(sweepConfigs(RunConfig{Trace: traceName, Scale: scale, Bursty: true, TrackLoad: true}, pcSizes))
}

// Table6Row reports which P_C size gave the most and least uniform
// distribution for a CRAID variant.
type Table6Row struct {
	Strategy          Strategy
	BestPct, WorstPct float64
	BestCV, WorstCV   float64
}

// Table6 derives the best/worst cv cache sizes from Figure 7 results:
// for each CRAID variant, in Strategies order, the sizes with the
// lowest and highest mean cv. On a tie the earlier result keeps its
// place.
func Table6(series []RunResult) []Table6Row {
	var rows []Table6Row
	for _, strat := range Strategies() {
		if !strat.IsCRAID() {
			continue
		}
		row, found := Table6Row{Strategy: strat}, false
		for _, res := range series {
			if res.Cfg.Strategy != strat {
				continue
			}
			cv, pct := metrics.Mean(res.CVs), res.Cfg.PCPct
			if !found || cv < row.BestCV {
				row.BestCV, row.BestPct = cv, pct
			}
			if !found || cv > row.WorstCV {
				row.WorstCV, row.WorstPct = cv, pct
			}
			found = true
		}
		if found {
			rows = append(rows, row)
		}
	}
	return rows
}

// --- Migration ablation ---

// MigrationRow is one strategy's cost over the paper's expansion
// schedule.
type MigrationRow struct {
	Strategy  string
	TotalFrac float64 // total blocks moved / dataset, summed over steps
	FinalCV   float64 // balance after the last expansion
	StepsFrac []float64
}

// MigrationAblation compares upgrade strategies on the 10→50 schedule;
// pcFrac is CRAID's cache size as a fraction of the dataset.
func MigrationAblation(pcFrac float64) ([]MigrationRow, error) {
	const samples = 200_000
	schedule := []int{10, 13, 17, 22, 29, 38, 50}
	var rows []MigrationRow
	for _, name := range migrate.Names() {
		rep, err := migrate.Simulate(name, schedule, samples, pcFrac)
		if err != nil {
			return nil, err
		}
		row := MigrationRow{
			Strategy:  name,
			TotalFrac: rep.TotalFrac(samples),
			FinalCV:   rep.FinalCV,
		}
		for _, s := range rep.Steps {
			row.StepsFrac = append(row.StepsFrac, s.MovedFrac)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
