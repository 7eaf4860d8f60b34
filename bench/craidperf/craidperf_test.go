package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"craid/internal/experiments"
	"craid/internal/trace"
	"craid/internal/workload"
)

// smokeSize keeps every workload to a few thousand records per round.
// msr-miss needs more: experiments.Run sizes its disks from the dataset,
// and below size 0.03 they are smaller than the HDD model's 16 zones,
// which the model answers with a negative-delay panic.
func smokeSize(workload string) float64 {
	if workload == "msr-miss" {
		return 0.04
	}
	return 0.01
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the tables the
// program emits from in step: same workloads, same metrics, same units,
// directions and bounds, every name well-formed.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		seen[m.Name] = true
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for n := range seen {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is not well-formed", n)
		}
	}
}

// TestSmoke runs every workload in-process, untraced and traced, and
// checks that exactly the declared metrics come out, nothing fails, the
// digests repeat, and another seed moves the digests of the two
// workloads whose inputs are generated from it and of no other.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		o := options{seed: 1, size: smokeSize(w.name), work: t.TempDir()}
		var digest string
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			o.trace = trace
			info, line, err := measureWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(info.Problems) > 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed: %v", w.name, trace, line.Correct, line.Failed, line.Attempted, info.Problems)
			}
			if info.Rounds < minRounds {
				t.Errorf("%s trace %d: %d rounds, digests were not checked to repeat", w.name, trace, info.Rounds)
			}
			if trace == 1 && info.SimDigest != digest {
				t.Errorf("%s: traced and untraced runs disagree on sim_digest: %s, %s", w.name, info.SimDigest, digest)
			}
			digest = info.SimDigest
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, %d declared", w.name, trace, len(line.Metrics), len(defs))
			}
			var shares float64
			for _, d := range defs {
				v, ok := line.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (emitted %v)", w.name, trace, d.name, v, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
				if filepath.Ext(d.name) == ".cpu_share" {
					shares += v.Value
				}
			}
			// A round this small may draw no profile sample at all.
			if trace == 1 && shares != 0 && math.Abs(shares-1) > 0.01 {
				t.Errorf("%s: cpu shares add to %v", w.name, shares)
			}
			if trace == 1 {
				if _, err := os.Stat(info.Spans); err != nil {
					t.Errorf("%s: spans: %v", w.name, err)
				}
			}
		}

		o.seed, o.trace = 2, 0
		info, _, err := measureWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		seeded := w.name == "msr-miss" || w.name == "fault-upgrade"
		if (info.SimDigest != digest) != seeded {
			t.Errorf("%s: sim_digest %s for seed 1, %s for seed 2; inputs generated from the seed: %v", w.name, digest, info.SimDigest, seeded)
		}
	}
}

// TestMSRRoundTrip: the generated file is byte-identical for one seed,
// and trace.NewMSRReader reads back the records it was written from.
func TestMSRRoundTrip(t *testing.T) {
	const size = 0.01
	dir := t.TempDir()
	s, sum, err := writeMSR(filepath.Join(dir, "a.csv"), 7, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, again, err := writeMSR(filepath.Join(dir, "b.csv"), 7, size); err != nil || again != sum {
		t.Fatalf("seed 7 twice: %s then %s (%v)", sum, again, err)
	}
	if _, other, err := writeMSR(filepath.Join(dir, "c.csv"), 8, size); err != nil || other == sum {
		t.Fatalf("seeds 7 and 8 gave the same file (%v)", err)
	}

	p, err := workload.Preset("proj")
	if err != nil {
		t.Fatal(err)
	}
	p = p.Scaled(experiments.ScaleFor("proj", 12*size))
	p.Seed = 7
	gen := workload.New(p)
	f, err := os.Open(s.file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := trace.NewMSRReader(f)
	var n, first int64
	for {
		want, errW := gen.Next()
		got, errG := rd.Next()
		if errW == io.EOF && errG == io.EOF {
			break
		}
		if errW != nil || errG != nil {
			t.Fatalf("record %d: generator %v, parser %v", n, errW, errG)
		}
		// FILETIME ticks are 100 ns and the parser rebases on the first.
		tick := int64(want.Time) / 100
		if n == 0 {
			first = tick
		}
		if got.Op != want.Op || got.Block != want.Block || got.Count != want.Count || int64(got.Time) != (tick-first)*100 {
			t.Fatalf("record %d: wrote %+v, read %+v", n, want, got)
		}
		n++
	}
	if n != s.records || n == 0 {
		t.Errorf("read %d records, wrote %d", n, s.records)
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"craid/internal/cache.(*WLRU).pickVictim":        "cache",
		"craid/internal/core.(*CRAID).insertRuns.func1":  "core",
		"craid/internal/mapcache.(*dirtySet).has":        "mapcache",
		"craid/internal/fabric.(*Client).Run":            "other",
		"runtime.mallocgc":                               "runtime",
		"runtime/internal/syscall.Syscall6":              "runtime",
		"internal/runtime/atomic.(*Uint32).Load":         "runtime",
		"internal/bytealg.IndexByte":                     "other",
		"encoding/json.(*encodeState).marshal":           "other",
		"main.runCell":                                   "other",
		"slices.SortFunc[go.shape.[]craid/internal/x.T]": "other",
		"": "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", sym, got, want)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}
