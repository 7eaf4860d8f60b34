// Package experiments reproduces every table and figure of the CRAID
// paper's evaluation (§5) plus the migration-cost ablation its
// motivation implies. Each experiment has one entry point; one that
// simulates a matrix of cells returns the RunResults it ran, in config
// order, each carrying its RunConfig. cmd/craidbench prints them
// paper-style and experiments_test.go asserts the paper's shapes on
// each.
//
// Scaling. The paper simulates one week against 50×146 GB disks. All
// experiments here take a volume scale factor: workload volumes AND
// disk capacities shrink together, preserving the dataset:disk ratio,
// seek-curve calibration (seek times depend on relative, not absolute,
// distances) and the P_C:dataset ratio — so the paper's shapes survive
// scaling while tests run in seconds. Scale 1.0 reproduces paper-scale
// geometry outright.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
	"craid/internal/workload"
)

// newFileReader builds the parser for cfg's trace file format.
func newFileReader(r io.Reader, cfg RunConfig) (trace.Reader, error) {
	format := strings.ToLower(cfg.TraceFormat)
	if cfg.TraceVolume != nil && format != "msr" {
		// Only MSR records carry a volume; replaying every record of
		// another format as if it were one volume would be silently wrong.
		return nil, fmt.Errorf("experiments: TraceVolume selects an MSR DiskNumber; format %q has none", cfg.TraceFormat)
	}
	switch format {
	case "", "native":
		return trace.NewNativeReader(r), nil
	case "msr":
		m := trace.NewMSRReader(r)
		if cfg.TraceVolume != nil {
			if *cfg.TraceVolume < 0 {
				return nil, fmt.Errorf("experiments: negative TraceVolume %d", *cfg.TraceVolume)
			}
			m.Volume = *cfg.TraceVolume
		}
		return m, nil
	case "blk", "srcmap":
		return trace.NewBlkReader(r), nil
	}
	return nil, fmt.Errorf("experiments: unknown trace format %q", cfg.TraceFormat)
}

// Strategy names the six allocation policies of the paper's §5.
type Strategy string

// The evaluated strategies (Fig. 3).
const (
	RAID5         Strategy = "RAID-5"
	RAID5Plus     Strategy = "RAID-5+"
	CRAID5        Strategy = "CRAID-5"
	CRAID5Plus    Strategy = "CRAID-5+"
	CRAID5SSD     Strategy = "CRAID-5ssd"
	CRAID5PlusSSD Strategy = "CRAID-5+ssd"
)

// Strategies returns all six in the paper's order.
func Strategies() []Strategy {
	return []Strategy{RAID5, RAID5Plus, CRAID5, CRAID5Plus, CRAID5SSD, CRAID5PlusSSD}
}

func (s Strategy) IsCRAID() bool { return s != RAID5 && s != RAID5Plus }
func (s Strategy) usesSSD() bool { return s == CRAID5SSD || s == CRAID5PlusSSD }

// Testbed constants (paper §5).
const (
	TestbedDisks       = 50
	TestbedSSDs        = 5
	TestbedParityGroup = 10
	TestbedStripeUnit  = 32 // blocks = 128 KiB
)

// QuickScale is the default volume scale for tests and benches.
const QuickScale = 0.002

// ScaleFor returns the volume scale that replays roughly budgetGB of
// traffic for the named trace (capped at 1.0 = paper scale). Traces
// differ by three orders of magnitude in volume (proj: 2.5 TB,
// webresearch: 3.4 GB), so a flat scale either degenerates the small
// traces or makes the big ones intractable; a volume budget keeps every
// trace meaningful at comparable simulation cost.
func ScaleFor(traceName string, budgetGB float64) float64 {
	p, err := workload.Preset(traceName)
	if err != nil {
		return 1
	}
	total := p.ReadGB + p.WriteGB
	if total <= budgetGB {
		return 1
	}
	return budgetGB / total
}

// scaledPreset returns the named workload at scale, or an error when
// that is too small to generate from (workload.New would panic).
func scaledPreset(name string, scale float64) (workload.Params, error) {
	p, err := workload.Preset(name)
	if err != nil {
		return p, err
	}
	p = p.Scaled(scale)
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("experiments: scale %g is too small: %w", scale, err)
	}
	return p, nil
}

// ScaleForBlocks returns the smallest volume scale (capped at paper
// scale 1.0) at which the testbed archive holds a dataset of the given
// block count with ~2x headroom — the natural scale for replaying a
// trace file whose footprint is known in blocks rather than via a
// workload preset.
func ScaleForBlocks(blocks int64) float64 {
	total := float64(disk.CheetahConfig("hdd").CapacityBlocks) * TestbedDisks
	s := 2 * float64(blocks) / total
	if s > 1 {
		s = 1
	}
	if s < 1e-5 {
		s = 1e-5
	}
	return s
}

// PCSizes returns the paper's cache-partition sweep (% per disk,
// Fig. 4/6 x-axes) for a trace.
func PCSizes(trace string) []float64 {
	switch trace {
	case "cello99", "home02":
		return []float64{0.02, 0.04, 0.08, 0.16, 0.32}
	case "deasna":
		return []float64{0.08, 0.16, 0.32, 0.64, 1.28}
	case "webresearch", "wdev":
		return []float64{0.002, 0.004, 0.008, 0.016, 0.032}
	case "webusers":
		return []float64{0.004, 0.008, 0.016, 0.032, 0.064}
	case "proj":
		return []float64{0.016, 0.032, 0.064, 0.128, 0.256}
	}
	return []float64{0.02, 0.04, 0.08, 0.16, 0.32}
}

// RunConfig describes one simulation.
type RunConfig struct {
	Trace    string
	Scale    float64  // volume scale (1.0 = paper scale); required
	Duration sim.Time // 0 = the preset's full week
	Strategy Strategy
	PCPct    float64 // cache size, % per disk (CRAID variants)
	Policy   string  // monitor policy; default WLRU (paper §5.1)

	// TraceFile replays a real trace file instead of the Trace preset.
	// TraceFormat selects the parser: "native" (default), "msr", or
	// "blk" (SRCMap/blkparse). DatasetBlocks sizes the simulated
	// dataset and is required with TraceFile (presets derive it from
	// the generator). TraceVolume, when non-nil, restricts an MSR file
	// to one DiskNumber (other formats reject it); nil replays all
	// volumes interleaved.
	TraceFile     string
	TraceFormat   string
	TraceVolume   *int
	DatasetBlocks int64

	// FaultSpec, when non-empty, installs a deterministic failure plan
	// (fault.ParsePlan syntax: "seed=7;fail:2@5s;rebuild:2@10s,rate=64")
	// on the run. The same spec replays bit-identically on every run.
	// Plans with a crash event need a CRAID strategy, whose mapping table
	// then logs its dirty translations into the in-memory image the
	// crashes recover from.
	FaultSpec string

	Instant  bool  // instant-service devices (§5.1 policy experiments)
	PCBlocks int64 // Instant mode: direct P_C capacity override

	// PCLevel selects the cache partition's redundancy (default
	// RAID-5, the paper's configuration).
	PCLevel core.PCLevel

	Bursty    bool // bursty, partially sequential arrivals
	TrackLoad bool // per-disk load → cv samples (Fig. 7)
	TrackSeq  bool // per-disk sequentiality (Fig. 5)
}

// RunResult carries everything the tables/figures consume.
type RunResult struct {
	Cfg      RunConfig
	Requests int64

	ReadMean, ReadP99   sim.Time
	WriteMean, WriteP99 sim.Time

	CRAID *core.Stats // nil for the plain baselines

	// Replay reports the replay ring's back-pressure counters.
	Replay core.ReplayStats

	// Fault KPIs, populated when FaultSpec installed a plan: the fault
	// fabric's counters, the response-time distribution of requests
	// submitted inside degraded windows, and the rebuild duration.
	Fault                     *core.FaultStats
	DegReadMean, DegReadP99   sim.Time
	DegWriteMean, DegWriteP99 sim.Time
	RebuildDuration           sim.Time

	CVs      []float64 // per-second coefficient of variation (if tracked)
	SeqFracs []float64 // per-second sequential fractions (if tracked)

	QueueMean float64
	QueueP99  int64
	QueueMax  int64
	ConcMean  float64
	ConcP99   int64
	ConcMax   int64
}

// Run executes one simulation to completion.
func Run(cfg RunConfig) (RunResult, error) {
	if cfg.TraceFile != "" && cfg.Scale == 0 && cfg.DatasetBlocks > 0 {
		// File traces can derive their geometry from the dataset size.
		cfg.Scale = ScaleForBlocks(cfg.DatasetBlocks)
	}
	if cfg.Scale <= 0 {
		return RunResult{}, fmt.Errorf("experiments: scale must be positive")
	}
	var rd trace.Reader
	var dataset int64
	if cfg.TraceFile != "" {
		if cfg.DatasetBlocks <= 0 {
			return RunResult{}, fmt.Errorf("experiments: file trace %q needs DatasetBlocks", cfg.TraceFile)
		}
		if cfg.Bursty {
			// Burstiness is a generator knob; a real trace's arrival
			// pattern is whatever was recorded.
			return RunResult{}, fmt.Errorf("experiments: Bursty does not apply to file traces")
		}
		f, err := os.Open(cfg.TraceFile)
		if err != nil {
			return RunResult{}, err
		}
		defer f.Close()
		rd, err = newFileReader(bufio.NewReaderSize(f, 1<<20), cfg)
		if err != nil {
			return RunResult{}, err
		}
		if cfg.Duration > 0 {
			rd = trace.Window(rd, 0, cfg.Duration)
		}
		dataset = cfg.DatasetBlocks
	} else {
		params, err := scaledPreset(cfg.Trace, cfg.Scale)
		if err != nil {
			return RunResult{}, err
		}
		if cfg.Duration > 0 {
			params = params.WithDuration(cfg.Duration)
		}
		if cfg.Bursty {
			params = params.WithBursts(12, 300*sim.Microsecond, 0.4)
		}
		gen := workload.New(params)
		rd = gen
		dataset = gen.DatasetBlocks()
	}

	var plan fault.Plan
	if cfg.FaultSpec != "" {
		var err error
		plan, err = fault.ParsePlan(cfg.FaultSpec)
		if err != nil {
			return RunResult{}, err
		}
	}

	eng := sim.NewEngine()
	vol, arr, err := buildVolume(eng, cfg, dataset)
	if err != nil {
		return RunResult{}, err
	}
	var faultRT *core.FaultRuntime
	if cfg.FaultSpec != "" {
		faultRT, err = core.InstallFaults(arr, vol, plan)
		if err != nil {
			return RunResult{}, err
		}
		if plan.HasExpand() {
			// expand@ events grow the array mid-replay with testbed
			// disks, named/indexed after the devices already built.
			// Copies, so the closure does not move all of cfg to the heap.
			scale, instant, next := cfg.Scale, cfg.Instant, arr.Devices()
			faultRT.SetDeviceFactory(func(n int) []disk.Device {
				out := make([]disk.Device, 0, n)
				for i := 0; i < n; i++ {
					out = append(out, testbedDisk(eng, next, scale, instant))
					next++
				}
				return out
			})
		}
	}
	if cfg.TrackLoad {
		arr.Load = metrics.NewLoadTracker(arr.Devices(), sim.Second)
	}
	var volSeq *metrics.SeqTracker
	if cfg.TrackSeq {
		// Fig. 5 measures the volume-level sequentiality of the
		// redirected logical stream (where CRAID's re-layout of
		// scattered hot data is visible), not raw per-disk mechanics.
		volSeq = metrics.NewSeqTracker(sim.Second)
		if v, ok := vol.(interface {
			SetVolumeSeq(*metrics.SeqTracker)
		}); ok {
			v.SetVolumeSeq(volSeq)
		}
	}

	rst, err := core.Replay(eng, vol, trace.Clamp(rd, vol.DataBlocks()))
	if err != nil {
		return RunResult{}, err
	}
	if rst.Records == 0 && cfg.TraceFile != "" {
		// A table of zeros would look like a result.
		return RunResult{}, noRecords(cfg)
	}
	if faultRT != nil {
		if err := faultRT.Err(); err != nil {
			return RunResult{}, err
		}
	}

	res := RunResult{
		Cfg:       cfg,
		Requests:  rst.Records,
		Replay:    rst,
		ReadMean:  vol.ReadLatency().Mean(),
		ReadP99:   vol.ReadLatency().Percentile(0.99),
		WriteMean: vol.WriteLatency().Mean(),
		WriteP99:  vol.WriteLatency().Percentile(0.99),
	}
	if c, ok := vol.(*core.CRAID); ok {
		res.CRAID = c.Stats()
	}
	if faultRT != nil {
		res.Fault = faultRT.Stats()
		res.RebuildDuration = res.Fault.RebuildDuration()
		if d, ok := vol.(interface {
			DegradedReadLatency() *metrics.LatencyHist
			DegradedWriteLatency() *metrics.LatencyHist
		}); ok {
			res.DegReadMean = d.DegradedReadLatency().Mean()
			res.DegReadP99 = d.DegradedReadLatency().Percentile(0.99)
			res.DegWriteMean = d.DegradedWriteLatency().Mean()
			res.DegWriteP99 = d.DegradedWriteLatency().Percentile(0.99)
		}
	}
	if arr.Load != nil {
		res.CVs = arr.Load.CVs()
	}
	if volSeq != nil {
		res.SeqFracs = volSeq.Fractions()
	}
	res.QueueMean, res.QueueP99, res.QueueMax = arr.QueueStats()
	res.ConcMean, res.ConcP99, res.ConcMax = arr.ConcurrencyStats()
	return res, nil
}

// noRecords explains a file replay that yielded no record. A TraceVolume
// the file does not hold is named beside the DiskNumbers it does hold.
func noRecords(cfg RunConfig) error {
	if cfg.TraceVolume != nil {
		if f, err := os.Open(cfg.TraceFile); err == nil {
			vols, err := trace.MSRVolumes(f)
			f.Close()
			if err == nil && len(vols) > 0 && !slices.Contains(vols, *cfg.TraceVolume) {
				return fmt.Errorf("experiments: %s holds no records of DiskNumber %d, only of %v",
					cfg.TraceFile, *cfg.TraceVolume, vols)
			}
		}
	}
	if cfg.Duration > 0 {
		return fmt.Errorf("experiments: %s holds no records in its first %g s", cfg.TraceFile, cfg.Duration.Seconds())
	}
	return fmt.Errorf("experiments: %s holds no records", cfg.TraceFile)
}

// diskBlocks is the capacity of one testbed HDD at scale.
func diskBlocks(scale float64) int64 {
	return int64(float64(disk.CheetahConfig("hdd").CapacityBlocks) * scale)
}

// testbedDisk builds testbed disk i: a Cheetah "hddN" of diskBlocks(scale)
// blocks, or an instant "nullN" when instant is set.
func testbedDisk(eng *sim.Engine, i int, scale float64, instant bool) disk.Device {
	if instant {
		return disk.NewNullDevice(eng, fmt.Sprintf("null%d", i), 1<<40)
	}
	c := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
	c.CapacityBlocks = diskBlocks(scale)
	return disk.NewHDD(eng, c)
}

// diskRegions splits one testbed disk at scale, for strategy s caching
// pcPct percent per disk, into the cache partition (shared-P_C variants;
// at least one stripe row) and the archive region. The device and layout
// constructors panic on a geometry with no room for a stripe row; scale
// and pcPct are the caller's input, so here that is an error.
func diskRegions(s Strategy, scale, pcPct float64) (pcPerDisk, paPerDisk int64, err error) {
	// The comparison is written so that NaN fails it too.
	if !(pcPct >= 0 && pcPct < 100) {
		return 0, 0, fmt.Errorf("experiments: PCPct %v is not a percentage in [0, 100)", pcPct)
	}
	diskCap := diskBlocks(scale)
	pcPerDisk = int64(pcPct / 100 * float64(diskCap))
	if s.IsCRAID() && pcPerDisk < TestbedStripeUnit {
		pcPerDisk = TestbedStripeUnit
	}
	paPerDisk = diskCap - pcPerDisk
	if !s.IsCRAID() || s.usesSSD() {
		paPerDisk = diskCap // archive owns the whole disk
	}
	if paPerDisk < TestbedStripeUnit {
		return 0, 0, fmt.Errorf("experiments: scale %g gives disks of %d blocks; the archive region needs a stripe row of %d beside a cache partition of %d",
			scale, diskCap, TestbedStripeUnit, diskCap-paPerDisk)
	}
	return pcPerDisk, paPerDisk, nil
}

// buildVolume assembles devices, layouts and the controller for cfg.
func buildVolume(eng *sim.Engine, cfg RunConfig, dataset int64) (core.Volume, *core.Array, error) {
	pcPerDisk, paPerDisk, err := diskRegions(cfg.Strategy, cfg.Scale, cfg.PCPct)
	if err != nil {
		return nil, nil, err
	}

	// Devices.
	var devs []disk.Device
	for i := 0; i < TestbedDisks; i++ {
		devs = append(devs, testbedDisk(eng, i, cfg.Scale, cfg.Instant))
	}
	hddIdx := indices(0, TestbedDisks)

	var ssdIdx []int
	pcTotalPerSSD := pcPerDisk * int64(TestbedDisks) / int64(TestbedSSDs)
	if cfg.Strategy.usesSSD() {
		for i := 0; i < TestbedSSDs; i++ {
			if cfg.Instant {
				devs = append(devs, disk.NewNullDevice(eng, fmt.Sprintf("nullssd%d", i), 1<<40))
				continue
			}
			sc := disk.MSRSSDConfig(fmt.Sprintf("ssd%d", i))
			if sc.CapacityBlocks < pcTotalPerSSD {
				sc.CapacityBlocks = pcTotalPerSSD
			}
			devs = append(devs, disk.NewSSD(eng, sc))
		}
		ssdIdx = indices(TestbedDisks, TestbedSSDs)
	}
	arr := core.NewArray(eng, devs)

	// Archive layouts sized to the full archive region, with the
	// dataset spread uniformly across it.
	buildArchive := func(plus bool) (raid.Layout, error) {
		var inner raid.Layout
		if plus {
			inner = raid.NewRAID5Plus(raid.PaperExpansionSizes(), paPerDisk, TestbedStripeUnit)
		} else {
			inner = raid.NewRAID5(TestbedDisks, TestbedParityGroup, paPerDisk, TestbedStripeUnit)
		}
		if inner.DataBlocks() < dataset {
			return nil, fmt.Errorf("experiments: dataset (%d blocks) exceeds archive capacity (%d); increase scale or disks",
				dataset, inner.DataBlocks())
		}
		return raid.NewSpreadLayout(inner, dataset), nil
	}

	ccfg := core.Config{
		Policy:       cfg.Policy,
		CachePerDisk: pcPerDisk,
		ParityGroup:  TestbedParityGroup,
		StripeUnit:   TestbedStripeUnit,
		Level:        cfg.PCLevel,
	}
	if cfg.Instant && cfg.PCBlocks > 0 {
		// Policy-quality experiments size P_C directly in blocks.
		ccfg.StripeUnit = 1
		ccfg.ParityGroup = TestbedParityGroup
		perDisk := cfg.PCBlocks / int64(TestbedDisks-TestbedDisks/TestbedParityGroup)
		if perDisk < 1 {
			perDisk = 1
		}
		ccfg.CachePerDisk = perDisk
	}

	switch cfg.Strategy {
	case RAID5:
		layout, err := buildArchive(false)
		if err != nil {
			return nil, nil, err
		}
		return core.NewRAIDController(arr, layout, hddIdx, 0), arr, nil
	case RAID5Plus:
		layout, err := buildArchive(true)
		if err != nil {
			return nil, nil, err
		}
		return core.NewRAIDController(arr, layout, hddIdx, 0), arr, nil
	case CRAID5, CRAID5Plus:
		layout, err := buildArchive(cfg.Strategy == CRAID5Plus)
		if err != nil {
			return nil, nil, err
		}
		base := ccfg.CachePerDisk
		c, err := core.NewCRAID(arr, ccfg, true, hddIdx, 0, layout, hddIdx, base)
		if err != nil {
			return nil, nil, err
		}
		return c, arr, nil
	case CRAID5SSD, CRAID5PlusSSD:
		layout, err := buildArchive(cfg.Strategy == CRAID5PlusSSD)
		if err != nil {
			return nil, nil, err
		}
		// Dedicated cache: the same total P_C bytes concentrated on the
		// SSDs (5 devices → parity group = 5).
		scfg := ccfg
		scfg.ParityGroup = TestbedSSDs
		scfg.CachePerDisk = pcTotalPerSSD
		if cfg.Instant && cfg.PCBlocks > 0 {
			scfg.StripeUnit = 1
			scfg.CachePerDisk = max(1, cfg.PCBlocks/int64(TestbedSSDs-1))
		}
		c, err := core.NewCRAID(arr, scfg, false, ssdIdx, 0, layout, hddIdx, 0)
		if err != nil {
			return nil, nil, err
		}
		return c, arr, nil
	}
	return nil, nil, fmt.Errorf("experiments: unknown strategy %q", cfg.Strategy)
}

func indices(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}
