package main

import (
	"fmt"
	"io"
	"path/filepath"

	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/workload"
)

// A workload is a fixed list of cells (one experiments.Run each) over a
// few distinct record streams. Set-up builds the list and counts the
// records every stream yields; the measured loop replays the list in
// rounds. No cell sets a pipeline knob (shards, workers, lookahead,
// affinity, scheduler): the benchmark measures what a user gets with no
// flags.
type workloadDef struct {
	name, why string
	seedUse   string // what -seed changes in the workload's inputs
	setup     func(e env) (*inputs, error)
}

// env is what set-up may depend on: the seed, the size factor (1 = the
// sizes ISSUE 11 lists; the default is an eighth of that so a run holds
// several rounds) and the directory generated files go to.
type env struct {
	seed int64
	size float64
	dir  string
}

type inputs struct {
	streams []*stream
	cells   []cell
	sha256  string // of the generated trace file; "" for preset workloads
}

// stream is one distinct record source: a calibrated preset generator
// or the generated MSR file.
type stream struct {
	name    string
	params  workload.Params // preset streams
	file    string          // msr-miss
	dataset int64           // dataset blocks
	records int64           // records the source yields
}

type cell struct {
	name   string
	cfg    experiments.RunConfig
	stream *stream
	// pcBlocks is the cell's P_C data capacity, used by the direct
	// monitor timers (0 for the plain baselines).
	pcBlocks int64
}

// presetSeed: the preset workloads are the paper's calibrated inputs.
const presetSeed = "recorded only: the presets carry the paper's calibrated seeds"

var workloads = []workloadDef{
	{
		name:    "table2-instant",
		why:     "7 presets x 5 policies on instant devices: monitor (mapcache + policies), redirector joins and 35 cold cell set-ups; disk, trace and the timing wheel idle",
		seedUse: presetSeed,
		setup:   setupTable2,
	},
	{
		name:    "fig4-timed-hit",
		why:     "wdev and webusers on HDD/SSD models at 92-97% hits: device models, timing wheel, parity RMW and histograms; monitor only looks up, two baseline cells bypass it",
		seedUse: presetSeed,
		setup:   setupFig4,
	},
	{
		name:    "msr-miss",
		why:     "seeded proj-shaped MSR CSV through the real parser and replay ring at ~65% hits: insert/evict/write-back side of the monitor, used the other way than table2-instant",
		seedUse: "seeds the generator the MSR file is written from",
		setup:   setupMSR,
	},
	{
		name:    "fault-upgrade",
		why:     "failures, rebuilds, transient errors, crash storm and two online upgrades on the fig4 layers: degraded paths, rebuild traffic, log recovery, Expand/ExpandRetain",
		seedUse: "seeds both fault plans (seed=N)",
		setup:   setupFault,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// presetStream sizes one preset at scale and drains its generator once
// to learn how many records it yields — the count every cell replaying
// it must report back as Requests.
func presetStream(name string, scale float64) (*stream, error) {
	p, err := workload.Preset(name)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	gen := workload.New(p)
	s := &stream{name: name, params: p, dataset: gen.DatasetBlocks()}
	for {
		if _, err := gen.Next(); err == io.EOF {
			return s, nil
		} else if err != nil {
			return nil, fmt.Errorf("preset %s: %w", name, err)
		}
		s.records++
	}
}

// Testbed geometry the direct timers share with experiments.Run
// (paper §5: 50 disks, parity groups of 10, 128 KiB stripe unit).
const (
	testbedDisks = 50
	testbedGroup = 10
	testbedUnit  = 32
)

// sharedPCBlocks mirrors how experiments.Run sizes a shared cache
// partition from PCPct, for the direct monitor timers only.
func sharedPCBlocks(scale, pcPct float64) int64 {
	diskCap := float64(disk.CheetahConfig("hdd").CapacityBlocks) * scale
	perDisk := int64(pcPct / 100 * diskCap)
	if perDisk < testbedUnit {
		perDisk = testbedUnit
	}
	return perDisk * (testbedDisks - testbedDisks/testbedGroup)
}

// setupTable2 builds the paper's Table 2/3 matrix exactly as
// experiments.Tables2and3 does, minus RunAll: cells run one at a time.
func setupTable2(e env) (*inputs, error) {
	in := &inputs{}
	presets := []string{"cello99", "deasna", "home02", "webresearch", "webusers", "wdev", "proj"}
	for _, name := range presets {
		scale := experiments.ScaleFor(name, 2.0*e.size)
		s, err := presetStream(name, scale)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, s)
		pc := s.dataset / 1000 // 0.1% of the weekly working set
		if pc < 50 {
			pc = 50
		}
		for _, policy := range []string{"LRU", "LFUDA", "GDSF", "ARC", "WLRU"} {
			in.cells = append(in.cells, cell{
				name: name + "/" + policy,
				cfg: experiments.RunConfig{
					Trace: name, Scale: scale, Strategy: experiments.CRAID5,
					Policy: policy, Instant: true, PCBlocks: pc,
				},
				stream:   s,
				pcBlocks: pc,
			})
		}
	}
	return in, nil
}

// timedCells is the shape fig4-timed-hit and fault-upgrade share: a
// preset at Scale 1 x size on the HDD/SSD models under WLRU.
func timedCells(in *inputs, e env, name string, pcPct float64, strategies []experiments.Strategy, faultSpec string) error {
	s, err := presetStream(name, e.size)
	if err != nil {
		return err
	}
	in.streams = append(in.streams, s)
	for _, st := range strategies {
		c := cell{
			name: name + "/" + string(st),
			cfg: experiments.RunConfig{
				Trace: name, Scale: e.size, Strategy: st, PCPct: pcPct,
				Policy: "WLRU", FaultSpec: faultSpec,
			},
			stream: s,
		}
		if st != experiments.RAID5 && st != experiments.RAID5Plus {
			c.pcBlocks = sharedPCBlocks(e.size, pcPct)
		}
		in.cells = append(in.cells, c)
	}
	return nil
}

func setupFig4(e env) (*inputs, error) {
	in := &inputs{}
	if err := timedCells(in, e, "wdev", 0.008,
		[]experiments.Strategy{experiments.RAID5, experiments.CRAID5, experiments.CRAID5SSD}, ""); err != nil {
		return nil, err
	}
	if err := timedCells(in, e, "webusers", 0.016,
		[]experiments.Strategy{experiments.RAID5Plus, experiments.CRAID5Plus, experiments.CRAID5PlusSSD}, ""); err != nil {
		return nil, err
	}
	return in, nil
}

// The two fault plans stay inside RAID-5's parity budget: devices 2 and
// 12 (and 52, a device the first upgrade adds) sit in different parity
// groups, so no extent may be lost.
func setupFault(e env) (*inputs, error) {
	in := &inputs{}
	planA := fmt.Sprintf("seed=%d;fail:2@12h;fail:12@24h;rebuild:2@100h,rate=64;rebuild:12@120h,rate=64;"+
		"transient:7@1h-160h,rate=0.02,lat=4;storm:crash@130h,n=3,every=10h", e.seed)
	planB := fmt.Sprintf("seed=%d;expand@40h,disks=5,retain;fail:52@80h;rebuild:52@100h,rate=64;expand@120h,disks=5", e.seed)
	craid5 := []experiments.Strategy{experiments.CRAID5}
	if err := timedCells(in, e, "wdev", 0.008, craid5, planA); err != nil {
		return nil, err
	}
	if err := timedCells(in, e, "webusers", 0.016, craid5, planB); err != nil {
		return nil, err
	}
	return in, nil
}

// setupMSR writes the seeded MSR file and replays it the way
// `craidsim -file X -format msr` would: no Scale, so experiments.Run
// derives the geometry from DatasetBlocks.
func setupMSR(e env) (*inputs, error) {
	s, sum, err := writeMSR(filepath.Join(e.dir, fmt.Sprintf("msr-miss-seed%d.csv", e.seed)), e.seed, e.size)
	if err != nil {
		return nil, err
	}
	const pcPct = 0.064
	// experiments.ScaleForBlocks: the testbed holds the dataset with 2x
	// headroom.
	scale := 2 * float64(s.dataset) / (float64(disk.CheetahConfig("hdd").CapacityBlocks) * testbedDisks)
	if scale > 1 {
		scale = 1
	}
	return &inputs{
		streams: []*stream{s},
		sha256:  sum,
		cells: []cell{{
			name: "proj-msr/CRAID-5",
			cfg: experiments.RunConfig{
				Trace: "proj-msr", TraceFile: s.file, TraceFormat: "msr", DatasetBlocks: s.dataset,
				Strategy: experiments.CRAID5, PCPct: pcPct, Policy: "WLRU",
			},
			stream:   s,
			pcBlocks: sharedPCBlocks(scale, pcPct),
		}},
	}, nil
}
