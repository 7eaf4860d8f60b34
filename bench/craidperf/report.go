package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// report is what -out writes and -compare reads: one complete set of
// runs of one commit.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Size      float64          `json:"size"`
	Seconds   float64          `json:"seconds"`
	BuildS    float64          `json:"build_s,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type workloadReport struct {
	Name      string           `json:"name"`
	Info      runInfo          `json:"info"` // of the first untraced run
	Attempted int64            `json:"records_attempted"`
	Failed    int64            `json:"records_failed"`
	EndToEnd  map[string]stat  `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// stat summarizes one end-to-end metric over the untraced runs.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// quartiles are Python's statistics.quantiles(values, n=4): the
// "exclusive" method, which the benchmark's acceptance rule uses.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) < 2 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func summarize(unit string, values []float64) stat {
	s := stat{Unit: unit, Median: median(values), N: len(values), Values: values,
		Min: slices.Min(values), Max: slices.Max(values)}
	s.Q1, s.Q3 = quartiles(values)
	return s
}

func host() hostInfo {
	h := hostInfo{Commit: "unknown", CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// child runs one (workload, trace) cell in a process of its own — a
// user pays a cold process on every run — and parses its two JSON lines.
func child(exe string, o options, workload string, trace int) (runInfo, resultLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", fmt.Sprint(o.seconds),
		"-size", fmt.Sprint(o.size), "-work", o.work)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: no result line", workload)
	}
	var info map[string]runInfo
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: info line: %w", workload, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return runInfo{}, resultLine{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return info["info"], line, nil
}

// runAll is the one command: every workload, -repeats untraced runs and
// one traced run each, cells strictly one after another.
func runAll(o options) (int, error) {
	if o.repeats < 1 {
		return 0, fmt.Errorf("need -repeats >= 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	rep := report{Host: host(), Seed: o.seed, Size: o.size, Seconds: o.seconds}
	if us, err := strconv.ParseFloat(os.Getenv("CRAIDPERF_BUILD_US"), 64); err == nil {
		rep.BuildS = us / 1e6
	}
	fmt.Printf("craidperf  commit %s  %s  nproc %d  GOMAXPROCS %d  %s\n",
		rep.Host.Commit, rep.Host.CPU, rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion)
	fmt.Printf("seed %d  size %g  %g s per run  %d untraced runs + 1 traced per workload", o.seed, o.size, o.seconds, o.repeats)
	if rep.BuildS > 0 {
		fmt.Printf("  build_s %.2f", rep.BuildS)
	}
	fmt.Println()

	var failed int64
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, EndToEnd: map[string]stat{}, PerLayer: map[string]value{}}
		samples := map[string][]float64{}
		var rounds []string
		for r := 0; r <= o.repeats; r++ {
			trace := 0
			if r == o.repeats {
				trace = 1
			}
			info, line, err := child(exe, o, w.name, trace)
			if err != nil {
				return 0, err
			}
			if r == 0 {
				wr.Info = info
			} else if info.SimDigest != wr.Info.SimDigest {
				// One commit, one seed, two digests: nothing measured
				// on this workload can be trusted.
				fmt.Fprintf(os.Stderr, "craidperf: %s: sim_digest %s of run %d differs from the first run's %s\n",
					w.name, info.SimDigest, r, wr.Info.SimDigest)
				line.Failed = line.Attempted
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			rounds = append(rounds, strconv.Itoa(info.Rounds))
			if trace == 1 {
				wr.PerLayer = line.Metrics
				continue
			}
			for name, v := range line.Metrics {
				samples[name] = append(samples[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.name] = summarize(d.unit, samples[d.name])
		}
		failed += wr.Failed
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(w, wr, rounds)
	}

	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

func printWorkload(w workloadDef, wr workloadReport, rounds []string) {
	in := wr.Info
	fmt.Printf("\n== %s\n   why: %s\n", w.name, w.why)
	fmt.Printf("   seed %d: %s\n", in.Seed, in.SeedUse)
	fmt.Printf("   %d cells, %d records per round, rounds per run %s\n", in.Cells, in.RecordsPerRound, strings.Join(rounds, " "))
	fmt.Printf("   records_attempted %d  records_failed %d\n", wr.Attempted, wr.Failed)
	fmt.Printf("   sim_digest %s\n", in.SimDigest)
	if in.InputSHA256 != "" {
		fmt.Printf("   input_sha256 %s\n", in.InputSHA256)
	}
	fmt.Printf("   end to end, tracing off: median [min .. max] over n runs\n")
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.name]
		fmt.Printf("     %-34s %14.4f %-8s [%.4f .. %.4f] n=%d  %s is better, may worsen by %g%%\n",
			d.name, s.Median, s.Unit, s.Min, s.Max, s.N, d.better, 100*d.bound)
	}
	fmt.Printf("   per layer, from the traced run\n")
	for _, d := range perLayer {
		fmt.Printf("     %-34s %14.4f %s\n", d.name, wr.PerLayer[d.name].Value, d.unit)
	}
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints, per workload and end-to-end metric, both
// medians, the ratio with its base, the bound and a verdict: worse (b's
// median is beyond the bound), unresolved (not worse, but a side's
// spread is wider than the bound, so "unchanged" cannot be claimed) or
// ok. The exit status is 1 if anything is worse.
func compareReports(pathA, pathB string) (int, error) {
	a, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Printf("a: %s  commit %s  seed %d  size %g  %g s\n", pathA, a.Host.Commit, a.Seed, a.Size, a.Seconds)
	fmt.Printf("b: %s  commit %s  seed %d  size %g  %g s\n", pathB, b.Host.Commit, b.Seed, b.Size, b.Seconds)
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Printf("\n== %s: missing from b\n", wa.Name)
			worse++
			continue
		}
		digest := "equal"
		if wa.Info.SimDigest != wb.Info.SimDigest {
			digest = "different: the simulated results changed"
		}
		fmt.Printf("\n== %s   sim_digest %s   records_failed %d -> %d\n", wa.Name, digest, wa.Failed, wb.Failed)
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			limit, bad := sa.Median*(1+d.bound), sb.Median > sa.Median*(1+d.bound)
			if d.better == "higher" {
				limit, bad = sa.Median*(1-d.bound), sb.Median < sa.Median*(1-d.bound)
			}
			verdict := "ok"
			switch {
			case bad:
				verdict = "worse"
				worse++
			case sa.spread() > d.bound || sb.spread() > d.bound:
				verdict = "unresolved"
			}
			fmt.Printf("   %-18s a %14.4f  b %14.4f %-8s b/a %.4f  limit %.4f (%s is better, bound %g%%)  spread a %.1f%% b %.1f%%  %s\n",
				d.name, sa.Median, sb.Median, sa.Unit, sb.Median/sa.Median, limit, d.better, 100*d.bound,
				100*sa.spread(), 100*sb.spread(), verdict)
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.name].Value, wb.PerLayer[d.name].Value; d.exact && va != vb {
				fmt.Printf("   %-34s a %v  b %v %s  exact count differs\n", d.name, va, vb, d.unit)
			}
		}
	}
	if worse > 0 {
		return 1, nil
	}
	return 0, nil
}
