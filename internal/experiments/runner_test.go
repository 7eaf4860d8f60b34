package experiments

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"craid/internal/core"
	"craid/internal/sim"
)

// TestRunAllDeterministicAcrossParallelism runs the same small matrix
// at several worker bounds — a negative one is one worker — and
// requires identical results in config order: parallelism must never
// change what an experiment reports.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	var cfgs []RunConfig
	for _, policy := range []string{"LRU", "ARC", "WLRU"} {
		for _, trace := range []string{"wdev", "webresearch"} {
			cfgs = append(cfgs, RunConfig{
				Trace: trace, Scale: QuickScale, Strategy: CRAID5,
				Policy: policy, Instant: true, PCBlocks: 2000,
			})
		}
	}
	serial, err := (&Runner{Parallel: 1}).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	dropRingTelemetry(serial)
	for _, workers := range []int{2, 4, 8, -3} {
		r := &Runner{Parallel: workers}
		parallel, err := r.RunAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		dropRingTelemetry(parallel)
		if !reflect.DeepEqual(parallel, serial) {
			t.Errorf("Parallel=%d: results differ from Parallel=1", workers)
		}
		if h, c := r.Hits.Load(), r.Computed.Load(); h != 0 || c != int64(len(cfgs)) {
			t.Errorf("Parallel=%d: %d hits, %d computed, want 0 and %d", workers, h, c, len(cfgs))
		}
	}
}

// TestRunAllLowestIndexedError pins that a batch with several bad
// cells reports the lowest-indexed one's error at any worker count,
// and that cells behind a failure are skipped rather than all run.
func TestRunAllLowestIndexedError(t *testing.T) {
	cfgs := make([]RunConfig, 40)
	for i := range cfgs {
		cfgs[i] = cheapCell("LRU", 100+int64(i))
	}
	cfgs[5].Strategy = "no-such-strategy-5"
	cfgs[11].Scale = 0
	cfgs[14].Strategy = "no-such-strategy-14"
	for _, workers := range []int{1, 2, 4, 8, 0} {
		r := &Runner{Parallel: workers}
		results, err := r.RunAll(cfgs)
		if err == nil || !strings.Contains(err.Error(), "no-such-strategy-5") {
			t.Fatalf("Parallel=%d: error = %v, want cell 5's (lowest index)", workers, err)
		}
		for i := 0; i < 5; i++ {
			if results[i].Requests == 0 {
				t.Errorf("Parallel=%d: cell %d, ahead of the failure, did not run", workers, i)
			}
		}
		if ran := r.Computed.Load(); ran == int64(len(cfgs)) {
			t.Errorf("Parallel=%d: all %d cells ran; the ones not started when cell 5 failed should be skipped", workers, ran)
		}
	}
}

// TestRunAllUnreadableStoreFails: a store that cannot be read is the
// batch's error, not a silent recomputation.
func TestRunAllUnreadableStoreFails(t *testing.T) {
	r := &Runner{Store: newTestStore(t)}
	cfgs := []RunConfig{cheapCell("LRU", 500), cheapCell("ARC", 500)}
	// A directory where the second cell's entry file belongs: reading it
	// fails with something other than "does not exist".
	hash := mustHash(t, cfgs[1])
	if err := os.MkdirAll(r.Store.dir+"/"+hash[:2]+"/"+hash+".json", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunAll(cfgs); err == nil || !strings.Contains(err.Error(), "store get") {
		t.Fatalf("RunAll over an unreadable store: %v", err)
	}
}

// keyed lists RunConfig's fields by whether ConfigHash covers them,
// which is whether encoding/json does.
func keyed(t *testing.T) (in, out []reflect.StructField) {
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case !f.IsExported():
			t.Fatalf("RunConfig.%s is unexported: json skips it, so the store key would too", f.Name)
		case f.Tag.Get("json") == "-":
			out = append(out, f)
		default:
			in = append(in, f)
		}
	}
	return in, out
}

// TestConfigHashDistinguishesEveryField changes each RunConfig field
// in turn, found by reflection so that a new field cannot be forgotten:
// one that json encodes must change the store key — a field the key
// ignores would serve a wrong stored result — and one tagged json:"-"
// cannot, so setting it must make the cell uncacheable.
func TestConfigHashDistinguishesEveryField(t *testing.T) {
	base := RunConfig{Trace: "wdev", Scale: 0.002, Strategy: CRAID5, PCPct: 0.008}
	baseHash := mustHash(t, base)
	if !cacheable(base) {
		t.Fatal("the base config is not cacheable")
	}
	in, out := keyed(t)
	if len(in) < 19 || len(out) != 2 {
		t.Fatalf("%d keyed and %d unkeyed fields, want at least 19 and TraceAt, TraceAtSize", len(in), len(out))
	}
	seen := map[string]string{baseHash: "the base config"}
	for _, f := range in {
		cfg := base
		v := reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem())) // nil → &0
		default:
			t.Fatalf("RunConfig.%s is a %s: teach this test to change one", f.Name, v.Kind())
		}
		h := mustHash(t, cfg)
		if prev, dup := seen[h]; dup {
			t.Errorf("changing %s gives the key of %s", f.Name, prev)
		}
		seen[h] = "changing " + f.Name
	}
	// Two cells that differ only in their handle have one key, and are
	// never looked up under it.
	a, b := base, base
	a.TraceAt, a.TraceAtSize = bytes.NewReader([]byte("0 R 0 8\n")), 8
	b.TraceAt, b.TraceAtSize = bytes.NewReader([]byte("0 W 8 8\n1 W 16 8\n")), 17
	if mustHash(t, a) != mustHash(t, b) || mustHash(t, a) != baseHash {
		t.Error("a TraceAt handle reached the key: json encodes it after all")
	}
	if cacheable(a) || cacheable(b) {
		t.Error("a cell with a TraceAt handle is cacheable")
	}
}

// TestConfigHashStable: the key depends on a config's value and on
// nothing else — not on which *int holds TraceVolume, not on when it is
// computed — and has the shape the store accepts.
func TestConfigHashStable(t *testing.T) {
	v1, v2 := 3, 3
	a := RunConfig{TraceFile: "msr.csv", TraceFormat: "msr", TraceVolume: &v1, DatasetBlocks: 1 << 20,
		Scale: 0.25, Strategy: RAID5Plus, Duration: 2 * sim.Hour, PCLevel: core.PCRaid6}
	b := a
	b.TraceVolume = &v2
	ha, hb := mustHash(t, a), mustHash(t, b)
	if ha != hb || ha != mustHash(t, a) {
		t.Fatalf("equal configs, keys %s and %s", ha, hb)
	}
	v2 = 4
	if mustHash(t, b) == ha {
		t.Fatal("TraceVolume's value is not in the key")
	}
	if _, err := newTestStore(t).path(ha); err != nil {
		t.Fatalf("the store rejects the key: %v", err)
	}
}

// FuzzConfigEncode drives arbitrary field values through ConfigHash:
// a config either has no JSON encoding — only a NaN or an infinity
// does that — and then has no key, which RunAll reports as that cell's
// error, or it has a key the store accepts, the same one every time.
func FuzzConfigEncode(f *testing.F) {
	f.Add("wdev", 0.002, int64(0), "CRAID-5", 0.008, "WLRU", "", "", -1, int64(0),
		"", "", false, false, int64(0), uint8(0), false, false, false)
	f.Add("", math.NaN(), int64(-5), "RAID-5", math.Inf(1), "p\x00q", "a.trace", "msr", 3, int64(1<<40),
		"seed=1;crash@2s", "log\n.bin", true, true, int64(77), uint8(255), true, true, false)
	f.Add("héllo\xff", -0.0, int64(1<<62), "s=t\n", 1e-300, "LRU", "=", "native", -100, int64(-1),
		"", "", false, false, int64(0), uint8(3), false, false, true)
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, trace string, scale float64, duration int64, strategy string,
		pcPct float64, policy, traceFile, traceFormat string, traceVolume int, datasetBlocks int64,
		faultSpec, mappingLog string, mapLogSync bool,
		instant bool, pcBlocks int64, pcLevel uint8, bursty, trackLoad, trackSeq bool) {
		cfg := RunConfig{
			Trace: trace, Scale: scale, Duration: sim.Time(duration),
			Strategy: Strategy(strategy), PCPct: pcPct, Policy: policy,
			TraceFile: traceFile, TraceFormat: traceFormat, DatasetBlocks: datasetBlocks,
			FaultSpec: faultSpec, MappingLog: mappingLog, MapLogSync: mapLogSync,
			Instant: instant, PCBlocks: pcBlocks, PCLevel: core.PCLevel(pcLevel),
			Bursty: bursty, TrackLoad: trackLoad, TrackSeq: trackSeq,
		}
		if traceVolume >= 0 {
			cfg.TraceVolume = &traceVolume
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		h1, err := ConfigHash(cfg)
		if encodable := finite(scale) && finite(pcPct); (err == nil) != encodable {
			t.Fatalf("ConfigHash: %v, for Scale %v and PCPct %v", err, scale, pcPct)
		}
		if err != nil {
			if !cacheable(cfg) {
				return
			}
			r := &Runner{Store: st}
			if _, rerr := r.RunAll([]RunConfig{cfg}); rerr == nil || r.Computed.Load() != 0 {
				t.Fatalf("RunAll ran a cell that has no key: %v", rerr)
			}
			return
		}
		if h2, _ := ConfigHash(cfg); h2 != h1 {
			t.Fatalf("two keys for one config: %s, %s", h1, h2)
		}
		if _, err := st.path(h1); err != nil {
			t.Fatalf("the store rejects the key: %v", err)
		}
	})
}
