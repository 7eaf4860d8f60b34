package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"craid/internal/core"
	"craid/internal/sim"
)

// goldenConfigs pairs representative configs with their frozen content
// addresses. These hashes are the result store's CACHE KEYS: if this
// test fails the encoder changed observably and canonVersion MUST be
// bumped (which retires old cache entries) — do not just update the
// hex strings.
func goldenConfigs() ([]RunConfig, []string) {
	vol := 3
	cfgs := []RunConfig{
		{},
		{Trace: "wdev", Scale: 0.002, Strategy: CRAID5, PCPct: 0.008, Policy: "WLRU"},
		{Trace: "cello99", Scale: 1, Duration: 2 * sim.Hour, Strategy: CRAID5PlusSSD,
			PCPct: 0.032, Policy: "ARC", FaultSpec: "seed=7;fail:2@5s;rebuild:2@10s,rate=64",
			MappingLog: "dirty.log", MapLogSync: true,
			Bursty: true, TrackLoad: true, TrackSeq: true},
		{TraceFile: "msr.csv", TraceFormat: "msr", TraceVolume: &vol, DatasetBlocks: 1 << 20,
			Scale: 0.25, Strategy: RAID5Plus},
		{Trace: "webusers", Scale: 1, Strategy: CRAID5, Policy: "LRU", Instant: true,
			PCBlocks: 2000, PCLevel: core.PCLevel(2)},
	}
	hashes := []string{
		"3d442bf3e5e7a02154f2ac4d25ce79863148560c8d48d10bf74dd7ae0afad49b",
		"9d483e73aa704ec1014d5410a5bd235c45563d0caef7b40f6c9e82a528c02ad4",
		"3722090c0f64997f5187322176794b1efce5eea2baa4abc539522d13a2f95557",
		"f78a6d33ba1cbc1afb5337dc301fd4b6f2d7a8fbe6e885029d7ba9fb0ba2f93a",
		"73ff40674ba6d2b06ecea6cc19b613460c1628e64e787db5832ce3c4059d930a",
	}
	return cfgs, hashes
}

func TestConfigHashStable(t *testing.T) {
	cfgs, want := goldenConfigs()
	for i, cfg := range cfgs {
		got, err := ConfigHash(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("cfg %d: hash drifted to %s (want %s) — cache keys changed; bump canonVersion",
				i, got, want[i])
		}
	}
}

func TestConfigEncodeRoundTrip(t *testing.T) {
	cfgs, _ := goldenConfigs()
	for i, cfg := range cfgs {
		enc, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		dec, err := DecodeConfig(enc)
		if err != nil {
			t.Fatalf("cfg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(dec, cfg) {
			t.Errorf("cfg %d: round trip mutated config:\n got %+v\nwant %+v", i, dec, cfg)
		}
	}
}

func TestConfigHashDistinguishesEveryField(t *testing.T) {
	// Flipping any single field must change the content address —
	// a field the hash ignores would serve a wrong cached result.
	base := RunConfig{Trace: "wdev", Scale: 0.002, Strategy: CRAID5, PCPct: 0.008}
	vol := 1
	muts := map[string]func(*RunConfig){
		"Trace":         func(c *RunConfig) { c.Trace = "cello99" },
		"Scale":         func(c *RunConfig) { c.Scale = 0.004 },
		"Duration":      func(c *RunConfig) { c.Duration = sim.Hour },
		"Strategy":      func(c *RunConfig) { c.Strategy = CRAID5Plus },
		"PCPct":         func(c *RunConfig) { c.PCPct = 0.016 },
		"Policy":        func(c *RunConfig) { c.Policy = "ARC" },
		"TraceFile":     func(c *RunConfig) { c.TraceFile = "x.trace" },
		"TraceFormat":   func(c *RunConfig) { c.TraceFormat = "msr" },
		"TraceVolume":   func(c *RunConfig) { c.TraceVolume = &vol },
		"DatasetBlocks": func(c *RunConfig) { c.DatasetBlocks = 1024 },
		"FaultSpec":     func(c *RunConfig) { c.FaultSpec = "seed=7;fail:2@5s" },
		"MappingLog":    func(c *RunConfig) { c.MappingLog = "d.log" },
		"MapLogSync":    func(c *RunConfig) { c.MapLogSync = true },
		"Instant":       func(c *RunConfig) { c.Instant = true },
		"PCBlocks":      func(c *RunConfig) { c.PCBlocks = 100 },
		"PCLevel":       func(c *RunConfig) { c.PCLevel = core.PCLevel(1) },
		"Bursty":        func(c *RunConfig) { c.Bursty = true },
		"TrackLoad":     func(c *RunConfig) { c.TrackLoad = true },
		"TrackSeq":      func(c *RunConfig) { c.TrackSeq = true },
	}
	// Every serialized RunConfig field except the excluded handle pair
	// must have a mutation here, so new fields can't dodge the hash.
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "TraceAt" || name == "TraceAtSize" {
			continue
		}
		if _, ok := muts[name]; !ok {
			t.Errorf("RunConfig.%s has no mutation in this test — add it AND extend the canonical encoder", name)
		}
	}
	baseHash, err := ConfigHash(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range muts {
		cfg := base
		mut(&cfg)
		h, err := ConfigHash(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("mutating %s did not change the config hash", name)
		}
	}
}

func TestEncodeConfigRejectsTraceAt(t *testing.T) {
	cfg := RunConfig{Trace: "wdev", TraceAt: bytes.NewReader(nil), TraceAtSize: 1}
	if _, err := EncodeConfig(cfg); err == nil {
		t.Fatal("EncodeConfig accepted a config with a process-local TraceAt handle")
	}
	if _, err := ConfigHash(cfg); err == nil {
		t.Fatal("ConfigHash accepted a config with a process-local TraceAt handle")
	}
}

func TestDecodeConfigRejectsMangled(t *testing.T) {
	enc, err := EncodeConfig(RunConfig{Trace: "wdev", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"bad version":    []byte("craid-config/999\n"),
		"old version":    bytes.Replace(enc, []byte("craid-config/2"), []byte("craid-config/1"), 1),
		"truncated":      enc[:len(enc)/2],
		"trailing junk":  append(append([]byte{}, enc...), []byte("extra=1\n")...),
		"swapped fields": bytes.Replace(enc, []byte("trace="), []byte("scale="), 1),
	}
	for name, data := range cases {
		if _, err := DecodeConfig(data); err == nil {
			t.Errorf("%s: DecodeConfig accepted it", name)
		}
	}
}

// FuzzConfigEncode drives arbitrary field values through
// encode → decode → re-encode and requires byte-identical output (the
// byte form is the cache key, so this is the exact property the store
// depends on). Byte comparison rather than DeepEqual keeps NaN scales
// in scope.
func FuzzConfigEncode(f *testing.F) {
	f.Add("wdev", 0.002, int64(0), "CRAID-5", 0.008, "WLRU", "", "", -1, int64(0),
		"", "", false, false, int64(0), uint8(0), false, false, false)
	f.Add("", math.NaN(), int64(-5), "RAID-5", math.Inf(1), "p\x00q", "a.trace", "msr", 3, int64(1<<40),
		"seed=1;crash@2s", "log\n.bin", true, true, int64(77), uint8(255), true, true, false)
	f.Add("héllo\xff", -0.0, int64(1<<62), "s=t\n", 1e-300, "LRU", "=", "native", -100, int64(-1),
		"", "", false, false, int64(0), uint8(3), false, false, true)
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
		enc, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := DecodeConfig(enc)
		if err != nil {
			t.Fatalf("decode of own encoding: %v\n%s", err, enc)
		}
		re, err := EncodeConfig(dec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("encoding not stable through a round trip:\n first %q\nsecond %q", enc, re)
		}
		h1, err := ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := ConfigHash(dec)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("hash differs across round trip: %s vs %s", h1, h2)
		}
		if len(h1) != 64 || strings.ToLower(h1) != h1 {
			t.Fatalf("hash %q is not lowercase hex sha-256", h1)
		}
	})
}
