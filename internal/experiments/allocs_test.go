package experiments

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"craid/internal/sim"
	"craid/internal/trace"
	"craid/internal/workload"
)

// runAllocs measures the allocations of one whole experiments.Run —
// parser, volume construction, replay, result — over the first d of
// cfg's trace file.
func runAllocs(t *testing.T, cfg RunConfig, d sim.Time) (allocs float64, res RunResult) {
	t.Helper()
	cfg.Duration = d
	allocs = testing.AllocsPerRun(2, func() {
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, res
}

// writePresetTrace writes a preset's whole week at scale to a
// native-format trace file. A preset's Duration stretches the same
// records over a different span; a file's Duration cuts the trace off,
// which is what a gate that varies only the record count needs.
func writePresetTrace(t *testing.T, name string, scale float64) (path string, dataset int64) {
	t.Helper()
	params, err := workload.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.New(params.Scaled(scale))
	path = filepath.Join(t.TempDir(), name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for {
		rec, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, gen.DatasetBlocks()
}

// TestRunAllocsDoNotScaleWithRecords gates allocations on what the
// benchmark of record runs — experiments.Run end to end, one cell of
// each shape its four workloads are made of — rather than on a
// hand-built controller: core's gates all read "0 allocs/record" while
// every Run allocated once per archive walk, because none of them
// builds the raid.SpreadLayout every Run's archive is, or a
// RAIDController.
//
// Each cell replays one day and then three days of the same trace file
// on the same geometry, with a cache partition small enough to be full
// within the first day (a block's first mapping allocates its index
// node; that is filling, not replaying). Tripling the records may push
// pools and queues — per device, 55 of them — to new high-water marks,
// so the bound is a count per cell, a few hundredths of an allocation
// per extra record; anything allocated per record, per I/O or per
// archive walk costs one or more.
func TestRunAllocsDoNotScaleWithRecords(t *testing.T) {
	const day = 24 * sim.Hour
	scale := ScaleFor("wdev", 1.0)
	file, dataset := writePresetTrace(t, "wdev", scale)
	base := RunConfig{Trace: "wdev", TraceFile: file, DatasetBlocks: dataset, Scale: scale, Policy: "WLRU"}
	cells := []struct {
		name  string
		bound float64 // allowed growth in allocations from one day to three
		with  func(*RunConfig)
	}{
		{"table2-instant: CRAID-5, PCBlocks, null devices", 400,
			func(c *RunConfig) { c.Strategy, c.Instant, c.PCBlocks = CRAID5, true, 500 }},
		{"fig4-timed-hit: RAID-5 baseline on HDDs", 100,
			func(c *RunConfig) { c.Strategy = RAID5 }},
		{"fig4-timed-hit: CRAID-5ssd", 1000,
			func(c *RunConfig) { c.Strategy, c.PCPct = CRAID5SSD, 0.001 }},
		{"fault-upgrade: CRAID-5 through a failure and a rebuild", 1000,
			func(c *RunConfig) {
				c.Strategy, c.PCPct, c.FaultSpec = CRAID5, 0.001, "seed=1;fail:2@6h;rebuild:2@12h,rate=64"
			}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.with(&cfg)
			small, resSmall := runAllocs(t, cfg, day)
			large, resLarge := runAllocs(t, cfg, 3*day)
			nSmall, nLarge := resSmall.Requests, resLarge.Requests
			if nSmall < 5000 || nLarge < 2*nSmall {
				t.Fatalf("runs replayed %d and %d records; the gate needs thousands, and the long run several times the short one", nSmall, nLarge)
			}
			if st := resSmall.CRAID; st != nil && st.Evictions == 0 {
				t.Fatalf("the cache partition is not full after one day (%+v): the longer run would be charged for filling it", *st)
			}
			t.Logf("%.0f allocations for %d records, %.0f for %d: %.4f per extra record",
				small, nSmall, large, nLarge, (large-small)/float64(nLarge-nSmall))
			if large-small > c.bound {
				t.Errorf("allocations scale with the trace: %.0f for %d records, %.0f for %d (%+.0f, %.4f per extra record; bound %+.0f)",
					small, nSmall, large, nLarge, large-small, (large-small)/float64(nLarge-nSmall), c.bound)
			}
			if cfg.FaultSpec == "" {
				return
			}
			// Nor with rebuilt rows: the rebuild finishes in both runs
			// above, so it is measured against the same day fault-free.
			rows := resSmall.Fault.RebuildRows
			cfg.FaultSpec = ""
			healthy, _ := runAllocs(t, cfg, day)
			t.Logf("%.0f allocations fault-free, %+.0f for a failure and %d rebuilt rows", healthy, small-healthy, rows)
			if rows < 10_000 {
				t.Fatalf("the plan rebuilt %d rows; the gate needs thousands", rows)
			}
			if small-healthy > c.bound {
				t.Errorf("allocations scale with rebuilt rows: %.0f fault-free, %.0f with %d rows rebuilt (%+.0f; bound %+.0f)",
					healthy, small, rows, small-healthy, c.bound)
			}
		})
	}
}
