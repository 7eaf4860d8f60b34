package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"craid/internal/experiments"
	"craid/internal/sim"
)

// result is a RunResult reduced to its JSON form. Program counters are
// read from it by path ("CRAID.ReadHits"), never by field, so a PR that
// reshapes the stats structs drops a layer metric here instead of
// breaking the benchmark's build.
type result map[string]any

func (r result) num(path string) (float64, bool) {
	var v any = map[string]any(r)
	for _, key := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return 0, false
		}
		if v, ok = m[key]; !ok {
			return 0, false
		}
	}
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	f, err := n.Float64()
	return f, err == nil
}

// cellOut is what one experiments.Run leaves behind. The RunResult
// itself is dropped at once: its stats pointers would keep the whole
// simulated array reachable and inflate peak_rss_mb.
type cellOut struct {
	ns      int64  // host wall time inside experiments.Run
	mallocs uint64 // runtime.MemStats.Mallocs delta over the same interval
	fired   int64  // sim events dispatched
	res     result
	digest  string // SHA-256 of res minus the goroutine-timing-dependent parts
	problem string // why the cell's records count as failed; "" if none
}

// notInDigest are the RunResult parts that may differ between two runs
// of one commit: the configuration echoes file paths, and the replay
// ring / planner / log ring counters depend on goroutine timing.
var notInDigest = []string{"Cfg", "Replay", "MQ", "MapLog"}

func runCell(c *cell, tr *tracer, parent int) cellOut {
	id := tr.begin("cell "+c.name, parent)
	defer tr.end(id)
	// Every cell starts from a collected heap, so its time and its share
	// of peak_rss_mb do not depend on how much garbage the cell before it
	// left behind.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f0 := sim.GlobalSchedStats().Fired
	run := tr.begin("experiments.Run", id)
	t0 := time.Now()
	res, err := experiments.Run(c.cfg)
	out := cellOut{ns: time.Since(t0).Nanoseconds()}
	tr.end(run)
	out.fired = sim.GlobalSchedStats().Fired - f0
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		out.problem = "experiments.Run: " + err.Error()
		return out
	}
	raw, err := json.Marshal(res)
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		err = dec.Decode(&out.res)
	}
	if err != nil {
		out.problem = "RunResult as JSON: " + err.Error()
		return out
	}
	kept := make(result, len(out.res))
	for k, v := range out.res {
		kept[k] = v
	}
	for _, k := range notInDigest {
		delete(kept, k)
	}
	canon, _ := json.Marshal(kept) // maps marshal with sorted keys; the values just decoded
	sum := sha256.Sum256(canon)
	out.digest = hex.EncodeToString(sum[:])
	out.problem = checkCell(c, out.res)
	return out
}

// checkCell applies the per-cell output checks. A counter the result no
// longer carries under the expected path cannot be checked and is
// skipped; Requests must always be there.
func checkCell(c *cell, r result) string {
	n, ok := r.num("Requests")
	if !ok || int64(n) != c.stream.records {
		return fmt.Sprintf("Requests = %v, the source yields %d", n, c.stream.records)
	}
	atMost := func(a, b string) string {
		x, okx := r.num(a)
		y, oky := r.num(b)
		if okx && oky && x > y {
			return fmt.Sprintf("%s = %v exceeds %s = %v", a, x, b, y)
		}
		return ""
	}
	for _, pair := range [][2]string{
		{"CRAID.ReadHits", "CRAID.ReadBlocks"},
		{"CRAID.WriteHits", "CRAID.WriteBlocks"},
		{"CRAID.DirtyEvictions", "CRAID.Evictions"},
	} {
		if p := atMost(pair[0], pair[1]); p != "" {
			return p
		}
	}
	if c.cfg.FaultSpec != "" {
		if r["Fault"] == nil {
			return "fault plan installed but the result has no Fault section"
		}
		for _, path := range []string{"Fault.LostExtents", "Fault.Permanent", "Fault.RebuildLostRows"} {
			if v, ok := r.num(path); ok && v != 0 {
				return fmt.Sprintf("%s = %v inside the parity budget", path, v)
			}
		}
	}
	return ""
}

// measurement is every round of one run. With tracing on, odd rounds run
// under the CPU profiler and even ones do not, so the overhead of
// tracing is measured inside one process.
type measurement struct {
	rounds    [][]cellOut
	traced    []bool
	ref       []float64 // host reference kernel, ns, refSamples per round
	profile   *pkgProfile
	attempted int64
	failed    int64
	problems  []string
}

// minRounds makes every run check that a second replay of the same
// inputs reproduces the first one's digests, and gives a traced run one
// round of each kind.
const minRounds = 2

// measure replays the cells in rounds until seconds have passed, calling
// again (set-up, timed by the caller) before every round but the first.
func measure(in *inputs, seconds float64, again func() error, tr *tracer, root int) (*measurement, error) {
	m := &measurement{}
	if tr != nil {
		m.profile = newPkgProfile()
	}
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		if r > 0 {
			if err := again(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < refSamples; i++ {
			m.ref = append(m.ref, float64(hostRef().Nanoseconds()))
		}
		traced := tr != nil && r%2 == 1
		name := "round"
		var prof bytes.Buffer
		if traced {
			name = "round traced"
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		id := tr.begin(name, root)
		outs := make([]cellOut, len(in.cells))
		for i := range in.cells {
			outs[i] = runCell(&in.cells[i], tr, id)
		}
		tr.end(id)
		if traced {
			pprof.StopCPUProfile()
			if err := m.profile.add(prof.Bytes()); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		for i := range outs {
			c, o := &in.cells[i], &outs[i]
			if o.problem == "" && r > 0 && o.digest != m.rounds[0][i].digest {
				o.problem = "sim_digest differs from round 0: the replay is not deterministic"
			}
			m.attempted += c.stream.records
			if o.problem != "" {
				m.failed += c.stream.records
				m.problems = append(m.problems, fmt.Sprintf("round %d, cell %s: %s", r, c.name, o.problem))
			}
		}
		m.rounds = append(m.rounds, outs)
		m.traced = append(m.traced, traced)
	}
	return m, nil
}

// simDigest is one hash over the first round's cell digests, in cell
// order; every later round was checked against it cell by cell.
func (m *measurement) simDigest() string {
	h := sha256.New()
	for _, o := range m.rounds[0] {
		h.Write([]byte(o.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rate reports records per second of host wall time over the rounds of
// one kind. Each cell contributes the fastest of its wall times: the
// simulator is deterministic and CPU-bound, so a busy neighbour on a
// shared host only ever adds time, and on such hosts the per-cell
// minimum repeats from run to run several times more closely than the
// median does (the info line carries the median-based rate as well).
func (m *measurement) rate(in *inputs, traced bool, pick func([]float64) float64) float64 {
	var records int64
	var ns float64
	for i, c := range in.cells {
		var times []float64
		for r, outs := range m.rounds {
			if m.traced[r] == traced {
				times = append(times, float64(outs[i].ns))
			}
		}
		if len(times) == 0 {
			return 0
		}
		records += c.stream.records
		ns += pick(times)
	}
	return float64(records) / ns * 1e9
}

// hostFactor is how much slower than the nominal host this run's host
// was at its quietest: see hostref.go.
func (m *measurement) hostFactor() float64 {
	return fastest(m.ref) / float64(refNominal.Nanoseconds())
}

func fastest(v []float64) float64 { return slices.Min(v) }

func (m *measurement) allocsPerRecord(in *inputs) float64 {
	var mallocs uint64
	var records int64
	for r, outs := range m.rounds {
		if m.traced[r] {
			continue
		}
		for i, o := range outs {
			mallocs += o.mallocs
			records += in.cells[i].stream.records
		}
	}
	return float64(mallocs) / float64(records)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
