package experiments

import (
	"fmt"
	"io"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/workload"
)

// --- Ablation: cache-partition redundancy level ---

// PCLevelRow compares one cache-partition redundancy level.
type PCLevelRow struct {
	Level     core.PCLevel
	ReadMean  sim.Time
	WriteMean sim.Time
	HitRead   float64
	HitWrite  float64
}

// AblationPCLevel runs CRAID-5's workload with RAID-0, RAID-5 and
// RAID-6 cache partitions: the §6 trade-off between parity safety and
// parity-update cost, made measurable.
func (r *Runner) AblationPCLevel(traceName string, scale, pcPct float64) ([]PCLevelRow, error) {
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
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]PCLevelRow, len(results))
	for i, res := range results {
		rows[i] = PCLevelRow{
			Level:     res.Cfg.PCLevel,
			ReadMean:  res.ReadMean,
			WriteMean: res.WriteMean,
			HitRead:   res.CRAID.HitRatio(disk.OpRead),
			HitWrite:  res.CRAID.HitRatio(disk.OpWrite),
		}
	}
	return rows, nil
}

// --- Ablation: expansion strategy (invalidate vs retain) ---

// UpgradeRow reports one live-expansion run.
type UpgradeRow struct {
	Mode          string // "invalidate" (paper §4.1) or "retain" (§6 extension)
	Upgrade       core.ExpandStats
	PreReadMean   sim.Time // mean read response before the expansion
	PostReadMean  sim.Time // mean read response after it
	PostHitRatio  float64  // read hit ratio measured after the expansion
	NewDiskReads  int64    // reads landing on the added disks afterwards
	NewDiskWrites int64
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
	diskCap, pcPerDisk, paPerDisk, err := diskRegions(CRAID5Plus, scale, pcPct)
	if err != nil {
		return UpgradeRow{}, err
	}
	eng := sim.NewEngine()
	hcfg := disk.CheetahConfig("hdd")
	newHDD := func(i int) disk.Device {
		c := hcfg
		c.Name = fmt.Sprintf("hdd%d", i)
		c.CapacityBlocks = diskCap
		return disk.NewHDD(eng, c)
	}
	var devs []disk.Device
	for i := 0; i < startDisks; i++ {
		devs = append(devs, newHDD(i))
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

	expandAt := params.Duration / 2
	row := UpgradeRow{Mode: "invalidate"}
	if retain {
		row.Mode = "retain"
	}
	var preHits, preAccesses int64
	var preReadSum float64
	var preReadN int64
	expanded := false
	for {
		rec, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return row, err
		}
		if !expanded && rec.Time >= expandAt {
			eng.RunUntil(expandAt)
			preReadSum = float64(c.ReadLatency().Mean()) * float64(c.ReadLatency().Count())
			preReadN = c.ReadLatency().Count()
			preHits = c.Stats().ReadHits
			preAccesses = c.Stats().ReadBlocks
			var extra []disk.Device
			for i := startDisks; i < endDisks; i++ {
				extra = append(extra, newHDD(i))
			}
			row.Upgrade = c.Expand(extra, retain, nil)
			expanded = true
		}
		eng.RunUntil(rec.Time)
		c.Submit(rec, nil)
	}
	eng.Run()
	if !expanded {
		return row, fmt.Errorf("experiments: trace ended before the expansion point")
	}

	if preReadN > 0 {
		row.PreReadMean = sim.Time(preReadSum / float64(preReadN))
	}
	if n := c.ReadLatency().Count() - preReadN; n > 0 {
		postSum := float64(c.ReadLatency().Mean())*float64(c.ReadLatency().Count()) - preReadSum
		row.PostReadMean = sim.Time(postSum / float64(n))
	}
	if n := c.Stats().ReadBlocks - preAccesses; n > 0 {
		row.PostHitRatio = float64(c.Stats().ReadHits-preHits) / float64(n)
	}
	for i := startDisks; i < endDisks; i++ {
		s := arr.Device(i).Stats()
		row.NewDiskReads += s.Reads
		row.NewDiskWrites += s.Writes
	}
	return row, nil
}
