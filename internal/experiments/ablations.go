package experiments

import (
	"fmt"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/workload"
)

// --- Ablation: cache-partition redundancy level ---

// AblationPCLevel runs CRAID-5's workload with RAID-0, RAID-5 and
// RAID-6 cache partitions, one result each in that order: the §6
// trade-off between parity safety and parity-update cost, made
// measurable.
func (r *Runner) AblationPCLevel(traceName string, scale, pcPct float64) ([]RunResult, error) {
	var cfgs []RunConfig
	for _, level := range []core.PCLevel{core.PCRaid0, core.PCRaid5, core.PCRaid6} {
		cfgs = append(cfgs, RunConfig{
			Trace:    traceName,
			Scale:    scale,
			Strategy: CRAID5,
			PCPct:    pcPct,
			PCLevel:  level,
			Bursty:   true,
		})
	}
	return r.RunAll(cfgs)
}

// --- Ablation: expansion strategy (invalidate vs retain) ---

// UpgradeRow reports one live-expansion run.
type UpgradeRow struct {
	Mode           string // "invalidate" (paper §4.1) or "retain" (§6 extension)
	Upgrade        core.ExpandStats
	PreReadMean    sim.Time // mean read response before the expansion
	PostReadMean   sim.Time // mean read response after it
	PostHitRatio   float64  // read hit ratio measured after the expansion
	PostReads      int64    // read responses after the expansion (PostReadMean's samples)
	PostReadBlocks int64    // blocks read after it (PostHitRatio's denominator)
	NewDiskReads   int64    // reads landing on the added disks afterwards
	NewDiskWrites  int64
}

// AblationRebalance expands a loaded CRAID array mid-trace (38→50
// disks, the paper schedule's last step) with both strategies: the
// paper's conservative invalidation versus the retaining extension.
// It quantifies the §6 discussion — invalidation costs post-expansion
// misses, retention costs upfront migration.
func AblationRebalance(traceName string, scale, pcPct float64) ([]UpgradeRow, error) {
	var rows []UpgradeRow
	for _, retain := range []bool{false, true} {
		row, err := upgradeRun(traceName, scale, pcPct, retain)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func upgradeRun(traceName string, scale, pcPct float64, retain bool) (UpgradeRow, error) {
	params, err := scaledPreset(traceName, scale)
	if err != nil {
		return UpgradeRow{}, err
	}
	gen := workload.New(params.WithBursts(12, 300*sim.Microsecond, 0.4))

	const startDisks, endDisks = 38, TestbedDisks
	pcPerDisk, paPerDisk, err := diskRegions(CRAID5Plus, scale, pcPct)
	if err != nil {
		return UpgradeRow{}, err
	}
	eng := sim.NewEngine()
	var devs []disk.Device
	for i := 0; i < startDisks; i++ {
		devs = append(devs, testbedDisk(eng, i, scale, false))
	}
	arr := core.NewArray(eng, devs)

	// Archive: the paper schedule's first six sets (10+3+4+5+7+9 = 38).
	sets := raid.PaperExpansionSizes()[:6]
	inner := raid.NewRAID5Plus(sets, paPerDisk, TestbedStripeUnit)
	if inner.DataBlocks() < gen.DatasetBlocks() {
		return UpgradeRow{}, fmt.Errorf("experiments: dataset exceeds 38-disk archive at scale %g", scale)
	}
	archive := raid.NewSpreadLayout(inner, gen.DatasetBlocks())
	c, err := core.NewCRAID(arr, core.Config{
		CachePerDisk: pcPerDisk,
		ParityGroup:  TestbedParityGroup,
		StripeUnit:   TestbedStripeUnit,
	}, true, indices(0, startDisks), 0, archive, indices(0, startDisks), pcPerDisk)
	if err != nil {
		return UpgradeRow{}, err
	}

	row := UpgradeRow{Mode: "invalidate"}
	if retain {
		row.Mode = "retain"
	}
	// The expansion is an engine event, so it fires ahead of any record
	// due at the same instant; it snapshots the counters the post-upgrade
	// columns are measured from.
	var preHits, preBlocks, preReadN int64
	var preReadSum float64
	eng.Schedule(params.Duration/2, func() {
		rd := c.ReadLatency()
		preReadN, preReadSum = rd.Count(), float64(rd.Mean())*float64(rd.Count())
		preHits, preBlocks = c.Stats().ReadHits, c.Stats().ReadBlocks
		var extra []disk.Device
		for i := startDisks; i < endDisks; i++ {
			extra = append(extra, testbedDisk(eng, i, scale, false))
		}
		row.Upgrade = c.Expand(extra, retain, nil)
	})
	if _, err := core.Replay(eng, c, gen); err != nil {
		return row, err
	}

	if preReadN > 0 {
		row.PreReadMean = sim.Time(preReadSum / float64(preReadN))
	}
	rd := c.ReadLatency()
	if row.PostReads = rd.Count() - preReadN; row.PostReads > 0 {
		postSum := float64(rd.Mean())*float64(rd.Count()) - preReadSum
		row.PostReadMean = sim.Time(postSum / float64(row.PostReads))
	}
	if row.PostReadBlocks = c.Stats().ReadBlocks - preBlocks; row.PostReadBlocks > 0 {
		row.PostHitRatio = float64(c.Stats().ReadHits-preHits) / float64(row.PostReadBlocks)
	}
	for i := startDisks; i < endDisks; i++ {
		s := arr.Device(i).Stats()
		row.NewDiskReads += s.Reads
		row.NewDiskWrites += s.Writes
	}
	return row, nil
}
