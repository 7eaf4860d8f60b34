package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustHash(t *testing.T, cfg RunConfig) string {
	t.Helper()
	h, err := ConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cheapCell is a real simulation small enough to run many times.
func cheapCell(policy string, pcBlocks int64) RunConfig {
	return RunConfig{
		Trace:    "webresearch",
		Scale:    ScaleFor("webresearch", 0.02),
		Strategy: CRAID5,
		Policy:   policy,
		Instant:  true,
		PCBlocks: pcBlocks,
	}
}

// dropRingTelemetry zeroes the replay ring's back-pressure counters:
// stall counts and the high-water mark are wall-clock telemetry that
// depends on OS scheduling, not simulation output — under host load two
// runs of one cell fill the ring differently without any result
// diverging, so only the deterministic fields must match.
func dropRingTelemetry(rs []RunResult) []RunResult {
	for i := range rs {
		rs[i].Replay.ReaderStalls, rs[i].Replay.ReplayStalls, rs[i].Replay.RingHighWater = 0, 0, 0
	}
	return rs
}

// --- Store ---

func TestStoreRoundTrip(t *testing.T) {
	st := newTestStore(t)
	cfg := cheapCell("LRU", 500)
	hash := mustHash(t, cfg)
	if _, ok, err := st.Get(hash); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
	}
	want := RunResult{
		Cfg: cfg, Requests: 12345,
		ReadMean: 71234, ReadP99: 991234,
		CVs: []float64{0.25, 1.0 / 3.0, 0.125}, // exact-float round trip matters
	}
	if err := st.Put(hash, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stored result mutated:\n got %+v\nwant %+v", got, want)
	}
	if tmps, _ := filepath.Glob(filepath.Join(st.dir, "*", "*.tmp.*")); len(tmps) != 0 {
		t.Fatalf("Put left temp files behind: %v", tmps)
	}
}

func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	st := newTestStore(t)
	hash := mustHash(t, cheapCell("LRU", 500))
	if err := st.Put(hash, RunResult{Requests: 1}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(st.dir, hash[:2], hash+".json")
	if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(hash); err != nil || ok {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss", ok, err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
}

func TestStoreRejectsMalformedHash(t *testing.T) {
	st := newTestStore(t)
	for _, h := range []string{"", "short", "../../etc/passwd", string(make([]byte, 64))} {
		if _, _, err := st.Get(h); err == nil {
			t.Errorf("Get(%q) accepted", h)
		}
		if err := st.Put(h, RunResult{}); err == nil {
			t.Errorf("Put(%q) accepted", h)
		}
	}
}

// TestStoreNamespacedByBuildIdentity pins what keeps a rebuilt
// simulator from being served its predecessor's numbers: ConfigHash
// covers the config, not the code — and promises nothing about its own
// encoding from one build to the next — so entries live under the
// identity of the binary that computed them.
func TestStoreNamespacedByBuildIdentity(t *testing.T) {
	dir := t.TempDir()
	idA, idB := strings.Repeat("a", 64), strings.Repeat("b", 64)
	open := func(id string) *Store {
		s, err := openStoreAs(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hash := mustHash(t, cheapCell("LRU", 500))
	if err := open(idA).Put(hash, RunResult{Requests: 7}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := open(idB).Get(hash); err != nil || ok {
		t.Fatalf("a different build sees the entry: ok=%v err=%v", ok, err)
	}
	if got, ok, err := open(idA).Get(hash); err != nil || !ok || got.Requests != 7 {
		t.Fatalf("the same build misses its own entry: %+v ok=%v err=%v", got, ok, err)
	}
	// The identity OpenStore uses is the running binary's, and stable.
	a, b := newTestStore(t), newTestStore(t)
	id, err := buildID()
	if err != nil || len(id) != 64 {
		t.Fatalf("buildID = %q, %v", id, err)
	}
	if filepath.Base(a.dir) != id[:16] || filepath.Base(b.dir) != id[:16] {
		t.Fatalf("OpenStore namespaces %q and %q, want %q", a.dir, b.dir, id[:16])
	}
}

// --- Runner with a Store ---

// counts returns what r has answered from its store and simulated
// since the last call.
func counts(r *Runner) (hits, computed int64) {
	return r.Hits.Swap(0), r.Computed.Swap(0)
}

func TestCacheColdForwardsEveryCellWarmForwardsNone(t *testing.T) {
	r := &Runner{Store: newTestStore(t)}
	fault := faultTestConfig()
	fault.FaultSpec = "seed=7;transient:3@5s-30s,rate=0.02,lat=4;fail:2@15s;rebuild:2@25s,rate=64"
	cfgs := []RunConfig{
		cheapCell("LRU", 500), cheapCell("ARC", 500), cheapCell("LRU", 900), fault,
		{Trace: "wdev", Scale: QuickScale, Strategy: RAID5, TrackLoad: true, TrackSeq: true},
	}
	want, err := new(Runner).RunAll(cfgs) // the ground truth: no store anywhere
	if err != nil {
		t.Fatal(err)
	}
	dropRingTelemetry(want)

	cold, err := r.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if h, c := counts(r); h != 0 || c != 5 {
		t.Fatalf("cold run: %d hits, %d computed, want 0 and 5", h, c)
	}
	warm, err := r.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if h, c := counts(r); h != 5 || c != 0 {
		t.Fatalf("warm run: %d hits, %d computed, want 5 and 0", h, c)
	}
	for name, got := range map[string][]RunResult{"cold": cold, "warm": warm} {
		dropRingTelemetry(got)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s cell %d differs from a storeless RunAll:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestCacheForwardsOnlyUncacheableCellsWhenWarm pins the three kinds of
// cell whose result is not a function of the store key alone: a
// TraceAt handle is not in the key (two such cells here share one), a
// TraceFile is keyed by path and not contents, and a MappingLog hit
// would skip writing the log.
func TestCacheForwardsOnlyUncacheableCellsWhenWarm(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "two.trace")
	const twoRecords = "0 R 0 8\n100 W 4000 8\n" // native format: time op addr len
	const threeRecords = twoRecords + "200 R 8 8\n"
	if err := os.WriteFile(tracePath, []byte(twoRecords), 0o644); err != nil {
		t.Fatal(err)
	}
	fileCell := RunConfig{
		Trace: "file-cell", Scale: QuickScale, Strategy: CRAID5, PCPct: 0.02,
		TraceFile: tracePath, TraceFormat: "native", DatasetBlocks: 50_000,
	}
	atCell := fileCell
	atCell.Trace, atCell.TraceFile = "at-cell", ""
	atCell.TraceAt, atCell.TraceAtSize = strings.NewReader(twoRecords), int64(len(twoRecords))
	atCell3 := atCell
	atCell3.TraceAt, atCell3.TraceAtSize = strings.NewReader(threeRecords), int64(len(threeRecords))
	logCell := RunConfig{Trace: "wdev", Scale: QuickScale, Strategy: CRAID5, PCPct: 0.008,
		MappingLog: filepath.Join(dir, "dirty.log")}
	cfgs := []RunConfig{cheapCell("LRU", 500), fileCell, cheapCell("ARC", 500), logCell, atCell, atCell3}

	r := &Runner{Store: newTestStore(t)}
	if _, err := r.RunAll(cfgs); err != nil {
		t.Fatal(err)
	}
	if h, c := counts(r); h != 0 || c != int64(len(cfgs)) {
		t.Fatalf("cold run: %d hits, %d computed, want 0 and %d", h, c, len(cfgs))
	}
	coldLog, err := os.ReadFile(logCell.MappingLog)
	if err != nil || len(coldLog) == 0 {
		t.Fatalf("cold run's mapping log: %d bytes, %v", len(coldLog), err)
	}
	if err := os.Remove(logCell.MappingLog); err != nil {
		t.Fatal(err)
	}
	got, err := r.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if h, c := counts(r); h != 2 || c != 4 {
		t.Fatalf("warm run: %d hits, %d computed, want 2 and exactly the TraceFile, MappingLog and TraceAt cells", h, c)
	}
	for i, trace := range []string{"webresearch", "file-cell", "webresearch", "wdev", "at-cell", "at-cell"} {
		if got[i].Cfg.Trace != trace {
			t.Errorf("result %d is for %q, want %q: config order lost", i, got[i].Cfg.Trace, trace)
		}
	}
	if got[1].Requests != 2 || got[4].Requests != 2 || got[5].Requests != 3 {
		t.Errorf("file cells replayed %d, %d and %d records, want 2, 2 and 3",
			got[1].Requests, got[4].Requests, got[5].Requests)
	}
	if warmLog, err := os.ReadFile(logCell.MappingLog); err != nil || !bytes.Equal(warmLog, coldLog) {
		t.Errorf("warm run did not rewrite the mapping log: %d bytes against %d, %v", len(warmLog), len(coldLog), err)
	}
}

func TestCacheNeverStoresAFailedCell(t *testing.T) {
	r := &Runner{Store: newTestStore(t)}
	bad := []RunConfig{{Trace: "wdev", Strategy: CRAID5}} // Scale 0: Run rejects it
	for _, run := range []string{"cold", "warm"} {
		if _, err := r.RunAll(bad); err == nil {
			t.Fatalf("%s: bad cell did not error through the store", run)
		}
		if h, c := counts(r); h != 0 || c != 1 {
			t.Fatalf("%s: %d hits, %d computed, want the failing cell computed again", run, h, c)
		}
	}
	if _, ok, _ := r.Store.Get(mustHash(t, bad[0])); ok {
		t.Fatal("failed cell was stored")
	}
}

func TestCacheRecomputesACorruptEntry(t *testing.T) {
	r := &Runner{Store: newTestStore(t)}
	cfgs := []RunConfig{cheapCell("LRU", 500), cheapCell("WLRU", 700)}
	want, err := r.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	counts(r)
	hash := mustHash(t, cfgs[1])
	p := filepath.Join(r.Store.dir, hash[:2], hash+".json")
	whole, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, whole[:len(whole)/2], 0o644); err != nil { // torn
		t.Fatal(err)
	}
	got, err := r.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if h, c := counts(r); h != 1 || c != 1 {
		t.Fatalf("%d hits, %d computed, want only the cell whose entry was torn computed", h, c)
	}
	if !reflect.DeepEqual(dropRingTelemetry(got), dropRingTelemetry(want)) {
		t.Fatal("recomputed result differs from the first run")
	}
	if _, ok, _ := r.Store.Get(hash); !ok {
		t.Fatal("recomputed cell was not stored again")
	}
}

// TestStoredResultResolvesBenchmarkPaths freezes the RunResult JSON
// paths bench/README.md lists, as a store hit presents them: the
// benchmark reads metrics by path and reports 0 for one that is gone,
// so a renamed field must fail here first.
func TestStoredResultResolvesBenchmarkPaths(t *testing.T) {
	cfg := faultTestConfig()
	cfg.FaultSpec = "seed=7;transient:3@5s-30s,rate=0.02,lat=4;fail:2@15s;rebuild:2@25s,rate=64;expand@40s,disks=5,retain"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	hash := mustHash(t, cfg)
	if err := st.Put(hash, res); err != nil {
		t.Fatal(err)
	}
	hit, ok, err := st.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	decode := func(r RunResult) map[string]any {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fresh, stored := decode(res), decode(hit)
	resolve := func(m map[string]any, path string) (any, bool) {
		var v any = m
		for _, key := range strings.Split(path, ".") {
			obj, _ := v.(map[string]any)
			if v = obj[key]; v == nil {
				return nil, false
			}
		}
		return v, true
	}
	paths := []string{"Requests", "ReadMean", "ReadP99", "WriteMean", "WriteP99", "QueueMean", "RebuildDuration"}
	for group, fields := range map[string]string{
		"CRAID":  "ReadBlocks WriteBlocks ReadHits WriteHits Evictions DirtyEvictions CopyIns Writebacks",
		"Replay": "ReplayStalls ReaderStalls RingHighWater",
		"Fault": "DegradedReads PeerReads Retries RebuildRows RecoveredMappings ExpandMigrated " +
			"LostExtents Permanent RebuildLostRows ExpandStart ExpandEnd",
	} {
		for _, f := range strings.Fields(fields) {
			paths = append(paths, group+"."+f)
		}
	}
	for _, path := range paths {
		want, ok := resolve(fresh, path)
		if !ok {
			t.Errorf("RunResult has no JSON path %s", path)
			continue
		}
		if got, _ := resolve(stored, path); got != want {
			t.Errorf("%s = %v from the store, %v computed", path, got, want)
		}
	}
	for _, path := range []string{"Requests", "CRAID.ReadHits", "Fault.DegradedReads", "Fault.RebuildRows", "Fault.ExpandEnd"} {
		if v, _ := resolve(fresh, path); v == 0.0 {
			t.Errorf("%s is 0: the cell does not exercise what the path measures", path)
		}
	}
}
