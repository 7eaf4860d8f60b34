// Command craidperf is the repository's benchmark of record: four
// workloads, four end-to-end metrics and per-layer attribution for the
// CRAID simulator. See ../README.md.
//
//	craidperf -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line
//	craidperf -seed N [-repeats R] [-out F]               every workload: R untraced runs + one traced
//	craidperf -compare a.json b.json                      noise-aware A-vs-B on two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs pins GOMAXPROCS: the default configuration runs the simulation
// goroutine and the trace reader goroutine and nothing else, and a
// fixed value keeps GC worker counts, and so the numbers, comparable
// across hosts with more cores.
const procs = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     float64
	work     string
	traceOut string
	repeats  int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (MSR file, fault plans)")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.size, "size", 0.125, "workload size; 1 replays the sizes ISSUE 11 lists in one round")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "directory for generated inputs and spans")
	flag.StringVar(&o.traceOut, "trace-out", "", "span NDJSON file of a traced run (default <work>/spans-<workload>.ndjson)")
	flag.IntVar(&o.repeats, "repeats", 3, "untraced runs per workload when no -workload is given")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON, the input of -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: craidperf -compare a.json b.json")
	flag.Parse()

	var err error
	code := 0
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		code, err = compareReports(flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		code, err = runOne(o)
	default:
		code, err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "craidperf:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints, in the shape the benchmark
// contract fixes.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is the line before it: what the numbers were measured on.
type runInfo struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	SeedUse         string    `json:"seed_use"`
	Size            float64   `json:"size"`
	Seconds         float64   `json:"seconds"`
	Trace           int       `json:"trace"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	Rounds          int       `json:"rounds"`
	Cells           int       `json:"cells"`
	RecordsPerRound int64     `json:"records_per_round"`
	Attempted       int64     `json:"records_attempted"`
	Failed          int64     `json:"records_failed"`
	SimDigest       string    `json:"sim_digest"`
	InputSHA256     string    `json:"input_sha256,omitempty"`
	MeasuredS       float64   `json:"measured_s"`
	RoundS          []float64 `json:"round_s"`              // wall time inside experiments.Run, per round
	HostFactor      float64   `json:"host_factor"`          // fastest reference kernel time / nominal
	RefMS           []float64 `json:"host_ref_ms"`          // every reference kernel run
	RawRate         float64   `json:"records_per_s_raw"`    // fastest per cell, not scaled by host_factor
	MedianRate      float64   `json:"records_per_s_median"` // median per cell, not scaled
	SetupS          []float64 `json:"setup_rep_s"`          // every set-up, not scaled
	Spans           string    `json:"spans,omitempty"`
	Problems        []string  `json:"problems,omitempty"`
}

func runOne(o options) (int, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return 0, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.size <= 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		return 0, fmt.Errorf("need -size > 0, -seconds >= 0 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(procs)
	info, line, err := measureWorkload(w, o)
	if err != nil {
		return 0, err
	}
	for _, p := range info.Problems {
		fmt.Fprintln(os.Stderr, "craidperf:", p)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runInfo{"info": info}); err != nil {
		return 0, err
	}
	if err := enc.Encode(line); err != nil {
		return 0, err
	}
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// measureWorkload is one run: set-up (several times), the measured
// rounds, the output checks and, when traced, the per-layer pass.
func measureWorkload(w workloadDef, o options) (runInfo, resultLine, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return runInfo{}, resultLine{}, err
	}
	e := env{seed: o.seed, size: o.size, dir: o.work}
	// Set-up runs once before the first round and again before every
	// later one, so its timings are spread over the whole run like the
	// cells' and must reproduce the first one's inputs every time.
	var first *inputs
	var setups []float64
	setup := func() error {
		t0 := time.Now()
		in, err := w.setup(e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if first == nil {
			first = in
		} else if in.sha256 != first.sha256 {
			return fmt.Errorf("seed %d generated two different inputs (%s, %s)", o.seed, first.sha256, in.sha256)
		}
		return nil
	}
	if err := setup(); err != nil {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: %w", w.name, err)
	}
	in := first

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(w.name)
	}
	root := tr.begin(w.name, -1)
	t0 := time.Now()
	m, err := measure(in, o.seconds, setup, tr, root)
	if err != nil {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: %w", w.name, err)
	}
	measured := time.Since(t0).Seconds()

	var perRound int64
	for _, c := range in.cells {
		perRound += c.stream.records
	}
	info := runInfo{
		Workload: w.name, Seed: o.seed, SeedUse: w.seedUse, Size: o.size, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: procs, Rounds: len(m.rounds), Cells: len(in.cells), RecordsPerRound: perRound,
		Attempted: m.attempted, Failed: m.failed, SimDigest: m.simDigest(), InputSHA256: in.sha256,
		MeasuredS: measured, HostFactor: m.hostFactor(), RawRate: m.rate(in, false, fastest),
		MedianRate: m.rate(in, false, median), SetupS: setups, Problems: m.problems,
	}
	for _, ns := range m.ref {
		info.RefMS = append(info.RefMS, ns/1e6)
	}
	for _, outs := range m.rounds {
		var ns int64
		for _, o := range outs {
			ns += o.ns
		}
		info.RoundS = append(info.RoundS, float64(ns)/1e9)
	}

	vals := map[string]float64{}
	defs := endToEnd
	if o.trace == 0 {
		// Timings are on the nominal host's scale: see hostref.go.
		vals["records_per_s"] = m.rate(in, false, fastest) * m.hostFactor()
		vals["allocs_per_record"] = m.allocsPerRecord(in)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["setup_s"] = fastest(setups) / m.hostFactor()
	} else {
		defs = perLayer
		counterMetrics(in, m, vals)
		profileMetrics(m.profile, perRound*int64(len(m.rounds)/2), vals) // odd rounds are the traced ones
		vals["trace_overhead_pct"] = 100 * (1 - m.rate(in, true, fastest)/m.rate(in, false, fastest))
		if err := directTimers(in, e, vals["sim.events_per_record"], tr, root, vals); err != nil {
			return runInfo{}, resultLine{}, fmt.Errorf("%s: %w", w.name, err)
		}
		tr.end(root)
		info.Spans = o.traceOut
		if info.Spans == "" {
			info.Spans = filepath.Join(o.work, "spans-"+w.name+".ndjson")
		}
		if err := tr.write(info.Spans); err != nil {
			return runInfo{}, resultLine{}, err
		}
	}

	line := resultLine{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return runInfo{}, resultLine{}, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	if len(line.Metrics) != len(vals) {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: measured %d metrics, %d are defined", w.name, len(vals), len(defs))
	}
	return info, line, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// what the Go runtime obtained from the OS where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
