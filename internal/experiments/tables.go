package experiments

import (
	"craid/internal/analysis"
	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/migrate"
	"craid/internal/sim"
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

// PolicyRow is one trace × policy measurement on instant disks.
type PolicyRow struct {
	Trace            string
	Policy           string
	HitRatio         float64 // Table 2
	ReplacementRatio float64 // Table 3
}

// Tables2and3 evaluates every policy on every trace with a P_C of 0.1%
// of the weekly working set, using the instant disk model, exactly as
// §5.1 does. Each workload scales to roughly budgetGB of traffic. The
// trace × policy cells run concurrently (see Runner.RunAll).
func (r *Runner) Tables2and3(budgetGB float64) ([]PolicyRow, error) {
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
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(results))
	for i, res := range results {
		rows[i] = PolicyRow{
			Trace:            res.Cfg.Trace,
			Policy:           res.Cfg.Policy,
			HitRatio:         res.CRAID.OverallHitRatio(),
			ReplacementRatio: res.CRAID.ReplacementRatio(),
		}
	}
	return rows, nil
}

// --- Figures 4 & 6 + Table 4: response times over the P_C sweep ---

// SweepPoint is one strategy × cache-size measurement.
type SweepPoint struct {
	Strategy  Strategy
	PCPct     float64
	ReadMean  sim.Time
	WriteMean sim.Time

	// CRAID monitor ratios for Table 4 (zero for plain baselines).
	ReadHit, WriteHit           float64
	ReadEviction, WriteEviction float64
}

// SweepResult is the full Fig. 4/6 series for one trace.
type SweepResult struct {
	Trace  string
	Points []SweepPoint
}

// ResponseTimeSweep regenerates the Fig. 4 (reads) and Fig. 6 (writes)
// series for one trace: every strategy at every cache size (plain
// baselines once, since they have no P_C), run concurrently. pcSizes
// nil uses the paper's sweep for the trace.
func (r *Runner) ResponseTimeSweep(traceName string, scale float64, pcSizes []float64) (SweepResult, error) {
	if pcSizes == nil {
		pcSizes = PCSizes(traceName)
	}
	var cfgs []RunConfig
	for _, strat := range Strategies() {
		sizes := pcSizes
		if !strat.IsCRAID() {
			sizes = pcSizes[:1] // baselines don't vary with P_C
		}
		for _, pct := range sizes {
			cfgs = append(cfgs, RunConfig{
				Trace:    traceName,
				Scale:    scale,
				Strategy: strat,
				PCPct:    pct,
			})
		}
	}
	out := SweepResult{Trace: traceName}
	results, err := r.RunAll(cfgs)
	if err != nil {
		return out, err
	}
	for _, res := range results {
		pt := SweepPoint{
			Strategy:  res.Cfg.Strategy,
			PCPct:     res.Cfg.PCPct,
			ReadMean:  res.ReadMean,
			WriteMean: res.WriteMean,
		}
		if res.CRAID != nil {
			pt.ReadHit = res.CRAID.HitRatio(disk.OpRead)
			pt.WriteHit = res.CRAID.HitRatio(disk.OpWrite)
			pt.ReadEviction = res.CRAID.EvictionRatio(disk.OpRead)
			pt.WriteEviction = res.CRAID.EvictionRatio(disk.OpWrite)
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Table4Row aggregates a trace's best hit ratio and worst eviction
// ratio over all its sweep simulations.
type Table4Row struct {
	Trace                           string
	BestReadHit, BestWriteHit       float64
	WorstReadEvict, WorstWriteEvict float64
}

// Table4 derives the best/worst ratios from a sweep result.
func Table4(sweep SweepResult) Table4Row {
	row := Table4Row{Trace: sweep.Trace}
	for _, pt := range sweep.Points {
		if !pt.Strategy.IsCRAID() {
			continue
		}
		row.BestReadHit = maxF(row.BestReadHit, pt.ReadHit)
		row.BestWriteHit = maxF(row.BestWriteHit, pt.WriteHit)
		row.WorstReadEvict = maxF(row.WorstReadEvict, pt.ReadEviction)
		row.WorstWriteEvict = maxF(row.WorstWriteEvict, pt.WriteEviction)
	}
	return row
}

// --- Figure 5: sequentiality ---

// Figure5Series is the per-second sequential-access distribution for
// one strategy.
type Figure5Series struct {
	Strategy Strategy
	// Quantiles of the per-second sequential fraction at 10% steps
	// (0%, 10%, ..., 100%) — the CDF of Fig. 5 read along the other
	// axis.
	Quantiles []float64
	Mean      float64
}

// Figure5 measures access sequentiality per strategy for one trace
// (the paper shows cello99 and webusers; any preset works). Uses
// bursty arrivals so scan-like streams exist to be sequentialized.
func (r *Runner) Figure5(traceName string, scale, pcPct float64) ([]Figure5Series, error) {
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
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Figure5Series, len(results))
	for i, res := range results {
		qs := make([]float64, 11)
		for j := range qs {
			qs[j] = metrics.Quantile(res.SeqFracs, float64(j)/10)
		}
		out[i] = Figure5Series{
			Strategy:  res.Cfg.Strategy,
			Quantiles: qs,
			Mean:      metrics.Mean(res.SeqFracs),
		}
	}
	return out, nil
}

// --- Table 5: queues, SSD-dedicated vs full-HDD ---

// Table5Row compares queue pressure between CRAID-5+ and CRAID-5+ssd.
type Table5Row struct {
	Strategy  Strategy
	QueueMean float64
	QueueP99  int64
	QueueMax  int64
	ConcMean  float64
	ConcP99   int64
	ConcMax   int64
}

// Table5 reproduces the wdev comparison at P_C = 0.002% with bursty
// arrivals (queue dynamics need load).
func (r *Runner) Table5(scale float64) ([]Table5Row, error) {
	cfgs := []RunConfig{
		{Trace: "wdev", Scale: scale, Strategy: CRAID5Plus, PCPct: 0.002, Bursty: true},
		{Trace: "wdev", Scale: scale, Strategy: CRAID5PlusSSD, PCPct: 0.002, Bursty: true},
	}
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, len(results))
	for i, res := range results {
		rows[i] = Table5Row{
			Strategy:  res.Cfg.Strategy,
			QueueMean: res.QueueMean, QueueP99: res.QueueP99, QueueMax: res.QueueMax,
			ConcMean: res.ConcMean, ConcP99: res.ConcP99, ConcMax: res.ConcMax,
		}
	}
	return rows, nil
}

// --- Figure 7 + Table 6: workload distribution ---

// Figure7Series is one strategy/size's distribution-uniformity curve.
type Figure7Series struct {
	Strategy Strategy
	PCPct    float64
	// CDF of the per-second cv evaluated at CVGrid points.
	CDF    []float64
	MeanCV float64
}

// CVGrid is the x-axis used for the Fig. 7 CDFs.
var CVGrid = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 6}

// Figure7 measures the workload-distribution uniformity (cv CDFs) for
// one trace: the plain baselines plus every CRAID variant at each of
// pcSizes (nil = the trace's paper sweep).
func (r *Runner) Figure7(traceName string, scale float64, pcSizes []float64) ([]Figure7Series, error) {
	if pcSizes == nil {
		pcSizes = PCSizes(traceName)
	}
	var cfgs []RunConfig
	for _, strat := range Strategies() {
		sizes := pcSizes
		if !strat.IsCRAID() {
			sizes = pcSizes[:1]
		}
		for _, pct := range sizes {
			cfgs = append(cfgs, RunConfig{
				Trace:     traceName,
				Scale:     scale,
				Strategy:  strat,
				PCPct:     pct,
				Bursty:    true,
				TrackLoad: true,
			})
		}
	}
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]Figure7Series, len(results))
	for i, res := range results {
		out[i] = Figure7Series{
			Strategy: res.Cfg.Strategy,
			PCPct:    res.Cfg.PCPct,
			CDF:      metrics.CDF(res.CVs, CVGrid),
			MeanCV:   metrics.Mean(res.CVs),
		}
	}
	return out, nil
}

// Table6Row reports which P_C size gave the most and least uniform
// distribution for a CRAID variant.
type Table6Row struct {
	Strategy          Strategy
	BestPct, WorstPct float64
	BestCV, WorstCV   float64
}

// Table6 derives the best/worst cv cache sizes from Figure 7 series.
func Table6(series []Figure7Series) []Table6Row {
	byStrat := map[Strategy][]Figure7Series{}
	for _, s := range series {
		if s.Strategy.IsCRAID() {
			byStrat[s.Strategy] = append(byStrat[s.Strategy], s)
		}
	}
	var rows []Table6Row
	for _, strat := range Strategies() {
		group := byStrat[strat]
		if len(group) == 0 {
			continue
		}
		row := Table6Row{Strategy: strat, BestCV: group[0].MeanCV, BestPct: group[0].PCPct,
			WorstCV: group[0].MeanCV, WorstPct: group[0].PCPct}
		for _, s := range group[1:] {
			if s.MeanCV < row.BestCV {
				row.BestCV, row.BestPct = s.MeanCV, s.PCPct
			}
			if s.MeanCV > row.WorstCV {
				row.WorstCV, row.WorstPct = s.MeanCV, s.PCPct
			}
		}
		rows = append(rows, row)
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

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
