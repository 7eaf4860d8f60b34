package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"craid/internal/experiments"
)

// Compile-time wiring: the in-process server and the HTTP remote are
// interchangeable worker backends, and the client is a drop-in
// executor for the experiment matrix.
var (
	_ API                  = (*Server)(nil)
	_ API                  = (*Remote)(nil)
	_ experiments.Executor = (*Client)(nil)
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustHash(t *testing.T, cfg experiments.RunConfig) string {
	t.Helper()
	h, err := experiments.ConfigHash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// cheapCell is a real simulation small enough for e2e tests.
func cheapCell(policy string, pcBlocks int64) experiments.RunConfig {
	return experiments.RunConfig{
		Trace:    "webresearch",
		Scale:    experiments.ScaleFor("webresearch", 0.02),
		Strategy: experiments.CRAID5,
		Policy:   policy,
		Instant:  true,
		PCBlocks: pcBlocks,
	}
}

// dropRingTelemetry zeroes the replay ring's back-pressure counters:
// they are wall-clock telemetry, not simulation output (see
// TestRunAllDeterministicAcrossParallelism) — under host load two runs
// of one cell fill the ring differently without any result diverging.
func dropRingTelemetry(rs ...*experiments.RunResult) {
	for _, r := range rs {
		r.Replay.ReaderStalls, r.Replay.ReplayStalls, r.Replay.RingHighWater = 0, 0, 0
	}
}

// --- Store ---

func TestStoreRoundTrip(t *testing.T) {
	st := newTestStore(t)
	cfg := cheapCell("LRU", 500)
	hash := mustHash(t, cfg)
	if _, ok, err := st.Get(hash); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
	}
	want := experiments.RunResult{
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
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	st := newTestStore(t)
	hash := mustHash(t, cheapCell("LRU", 500))
	if err := st.Put(hash, experiments.RunResult{Requests: 1}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(st.Dir(), hash[:2], hash+".json")
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
		if err := st.Put(h, experiments.RunResult{}); err == nil {
			t.Errorf("Put(%q) accepted", h)
		}
	}
}

// --- Scheduler: lease / heartbeat / requeue / first-result-wins ---

// fakeClock drives the scheduler deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestSched(ttl time.Duration) (*scheduler, *fakeClock) {
	s := newScheduler(ttl)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.now = clk.now
	return s, clk
}

func TestSchedulerLeaseExpiryRequeues(t *testing.T) {
	s, clk := newTestSched(10 * time.Second)
	cfg := experiments.RunConfig{Trace: "wdev"}
	var got experiments.RunResult
	var done atomic.Bool
	s.enqueue("h1", cfg, func(r experiments.RunResult, err error) {
		got = r
		done.Store(true)
	})

	l1 := s.lease(time.Millisecond)
	if l1 == nil || l1.Hash != "h1" {
		t.Fatalf("lease 1 = %+v", l1)
	}
	// Heartbeats keep it alive across TTL boundaries.
	clk.advance(8 * time.Second)
	if !s.heartbeat(l1.ID) {
		t.Fatal("heartbeat on live lease failed")
	}
	clk.advance(8 * time.Second)
	if l := s.lease(time.Millisecond); l != nil {
		t.Fatalf("cell re-issued while lease heartbeaten: %+v", l)
	}
	// Silence past TTL: the cell must be re-issued as a NEW lease.
	clk.advance(11 * time.Second)
	l2 := s.lease(time.Millisecond)
	if l2 == nil || l2.Hash != "h1" || l2.ID == l1.ID {
		t.Fatalf("expired cell not re-issued: %+v (was %+v)", l2, l1)
	}
	if s.heartbeat(l1.ID) {
		t.Fatal("heartbeat on expired lease succeeded")
	}
	st := s.snapshot()
	if st.Requeues != 1 || st.Leases != 2 {
		t.Fatalf("stats = %+v, want 1 requeue / 2 leases", st)
	}

	// Replacement completes; waiter fires exactly once.
	ws, ok := s.complete(l2.ID, "h1", false)
	if !ok || len(ws) != 1 {
		t.Fatalf("complete = %v waiters, ok=%v", len(ws), ok)
	}
	ws[0](experiments.RunResult{Requests: 7}, nil)
	if !done.Load() || got.Requests != 7 {
		t.Fatalf("waiter saw %+v", got)
	}
}

func TestSchedulerFirstResultWins(t *testing.T) {
	// The stale worker's completion can land BEFORE or AFTER the
	// replacement's; in both orders exactly one result is accepted.
	for _, staleFirst := range []bool{true, false} {
		s, clk := newTestSched(5 * time.Second)
		calls := 0
		s.enqueue("h1", experiments.RunConfig{}, func(experiments.RunResult, error) { calls++ })
		l1 := s.lease(time.Millisecond)
		clk.advance(6 * time.Second)
		l2 := s.lease(time.Millisecond) // requeued to a second worker
		if l1 == nil || l2 == nil {
			t.Fatal("missing lease")
		}
		first, second := l1.ID, l2.ID
		if !staleFirst {
			first, second = l2.ID, l1.ID
		}
		if ws, ok := s.complete(first, "h1", false); !ok || len(ws) != 1 {
			t.Fatalf("staleFirst=%v: first completion rejected", staleFirst)
		} else {
			ws[0](experiments.RunResult{}, nil)
		}
		if ws, ok := s.complete(second, "h1", false); ok || ws != nil {
			t.Fatalf("staleFirst=%v: second completion accepted", staleFirst)
		}
		if calls != 1 {
			t.Fatalf("staleFirst=%v: waiter fired %d times", staleFirst, calls)
		}
		if st := s.snapshot(); st.Computed != 1 || st.Duplicates != 1 {
			t.Fatalf("staleFirst=%v: stats %+v", staleFirst, st)
		}
	}
}

func TestSchedulerStaleResultBeatsRequeuedCell(t *testing.T) {
	// Lease expires and the cell is back in the queue — but the old
	// worker's result arrives before anyone re-leases it. The result
	// is accepted and the queued duplicate withdrawn.
	s, clk := newTestSched(5 * time.Second)
	s.enqueue("h1", experiments.RunConfig{}, func(experiments.RunResult, error) {})
	l1 := s.lease(time.Millisecond)
	if l1 == nil {
		t.Fatal("no lease")
	}
	// Expire the lease and sweep without anyone re-leasing, so the cell
	// is sitting in pending when the "dead" worker's result lands.
	clk.advance(6 * time.Second)
	s.mu.Lock()
	s.sweepLocked()
	pendingLen := len(s.pending)
	s.mu.Unlock()
	if pendingLen != 1 {
		t.Fatalf("cell not back in pending, len=%d", pendingLen)
	}
	if _, ok := s.complete(l1.ID, "h1", false); !ok {
		t.Fatal("stale result for a queued cell rejected; first result should win")
	}
	s.mu.Lock()
	pendingLen = len(s.pending)
	s.mu.Unlock()
	if pendingLen != 0 {
		t.Fatal("resolved cell left in pending queue")
	}
	if l := s.lease(time.Millisecond); l != nil {
		t.Fatalf("resolved cell re-issued: %+v", l)
	}
}

func TestSchedulerCoalescesIdenticalConfigs(t *testing.T) {
	s, _ := newTestSched(time.Minute)
	hits := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.enqueue("h1", experiments.RunConfig{}, func(experiments.RunResult, error) { hits[i]++ })
	}
	l := s.lease(time.Millisecond)
	if l == nil {
		t.Fatal("no lease")
	}
	if extra := s.lease(time.Millisecond); extra != nil {
		t.Fatalf("coalesced cell leased twice: %+v", extra)
	}
	ws, ok := s.complete(l.ID, "h1", false)
	if !ok || len(ws) != 3 {
		t.Fatalf("waiters = %d, ok=%v; want all 3 submissions served by one computation", len(ws), ok)
	}
	for _, w := range ws {
		w(experiments.RunResult{}, nil)
	}
	if hits[0] != 1 || hits[1] != 1 || hits[2] != 1 {
		t.Fatalf("waiter fan-out = %v", hits)
	}
	if st := s.snapshot(); st.Coalesced != 2 || st.Enqueued != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// --- Server + workers end to end (in-process and over HTTP) ---

// countingRunner wraps experiments.Run and counts real executions.
func countingRunner() (*atomic.Int64, func(experiments.RunConfig) (experiments.RunResult, error)) {
	var n atomic.Int64
	return &n, func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		n.Add(1)
		return experiments.Run(cfg)
	}
}

func TestFabricEndToEndMatchesLocalAndCaches(t *testing.T) {
	computed, runner := countingRunner()
	srv, err := NewServer(Options{Store: newTestStore(t), Runner: runner, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartLocalWorkers(2)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewClient(hs.URL)

	cfgs := []experiments.RunConfig{
		cheapCell("LRU", 500),
		cheapCell("ARC", 500),
		cheapCell("LRU", 900),
		cheapCell("LRU", 500), // duplicate of cell 0: must coalesce, not recompute
	}

	// The ground truth: the same cells in-process.
	want, err := experiments.RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}

	got, err := experiments.Collect(len(cfgs), func(emit func(experiments.CellResult)) error {
		return client.Execute(cfgs, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		dropRingTelemetry(&got[i], &want[i])
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cell %d differs across the fabric:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if n := computed.Load(); n != 3 {
		t.Fatalf("cold run computed %d cells, want 3 (4 submitted, 1 coalesced)", n)
	}

	// Warm run: zero recomputation, identical bytes.
	got2, err := experiments.Collect(len(cfgs), func(emit func(experiments.CellResult)) error {
		return client.Execute(cfgs, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 3 {
		t.Fatalf("warm run recomputed cells: total %d, want still 3", n)
	}
	for i := range got2 {
		dropRingTelemetry(&got2[i])
	}
	if !reflect.DeepEqual(got2, got) {
		t.Fatal("warm-cache results differ from cold results")
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduler.CacheHits != 4 {
		t.Fatalf("warm run cache hits = %d, want 4", st.Scheduler.CacheHits)
	}
	if st.StoreEntries != 3 {
		t.Fatalf("store entries = %d, want 3", st.StoreEntries)
	}
}

func TestRemoteWorkerOverHTTP(t *testing.T) {
	// No local workers: the job can only finish if the HTTP worker
	// path (lease → run → complete) works end to end.
	srv, err := NewServer(Options{Store: newTestStore(t), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	computed, runner := countingRunner()
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	w := &Worker{API: NewRemote(hs.URL), Run: runner, PollWait: 100 * time.Millisecond}
	go w.Loop(wctx)

	cfg := cheapCell("WLRU", 700)
	res, err := NewClient(hs.URL).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dropRingTelemetry(&res, &want)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("remote-worker result differs:\n got %+v\nwant %+v", res, want)
	}
	if computed.Load() != 1 {
		t.Fatalf("computed %d cells, want 1", computed.Load())
	}
}

func TestFabricCellErrorPropagates(t *testing.T) {
	srv, err := NewServer(Options{Store: newTestStore(t), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartLocalWorkers(1)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Scale <= 0 with no dataset: Run rejects it on the worker.
	_, err = NewClient(hs.URL).Run(experiments.RunConfig{Trace: "wdev", Strategy: experiments.CRAID5})
	if err == nil {
		t.Fatal("bad cell did not error through the fabric")
	}
	// Errors are not cached: the store stays empty.
	if n, _ := srv.store.Len(); n != 0 {
		t.Fatalf("failed cell cached: %d entries", n)
	}
}

// TestFabricWorkerPanicIsCellError pins that a panicking cell — the
// simulator panics on invariant violations by design — is an ordinary
// cell error: the one local worker survives it, the client gets the
// error for that cell's index, the batch's other cells complete, and
// the service still serves the next batch.
func TestFabricWorkerPanicIsCellError(t *testing.T) {
	runner := func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		if cfg.Policy == "ARC" {
			panic("core: policy evicted unmapped block 7")
		}
		return experiments.Run(cfg)
	}
	srv, err := NewServer(Options{Store: newTestStore(t), Runner: runner, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartLocalWorkers(1) // one worker: if the panic killed it, nothing below would finish
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := NewClient(hs.URL)

	cfgs := []experiments.RunConfig{cheapCell("LRU", 500), cheapCell("ARC", 500), cheapCell("LRU", 900)}
	var mu sync.Mutex
	cells := make([]experiments.CellResult, len(cfgs))
	if err := client.Execute(cfgs, func(cr experiments.CellResult) {
		mu.Lock()
		defer mu.Unlock()
		cells[cr.Index] = cr
	}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if cells[i].Err != nil || cells[i].Result.Requests == 0 {
			t.Errorf("cell %d beside the panicking one: err=%v requests=%d", i, cells[i].Err, cells[i].Result.Requests)
		}
	}
	if err := cells[1].Err; err == nil ||
		!strings.Contains(err.Error(), "panic: core: policy evicted unmapped block 7") ||
		!strings.Contains(err.Error(), "fabric_test.go") {
		t.Fatalf("panicking cell's error = %v, want the panic value and the stack frame that raised it", err)
	}
	if n, _ := srv.store.Len(); n != 2 {
		t.Errorf("store holds %d entries, want the 2 cells that succeeded", n)
	}

	res, err := client.Run(cheapCell("WLRU", 700))
	if err != nil || res.Requests == 0 {
		t.Fatalf("batch after the panic: err=%v requests=%d", err, res.Requests)
	}
}

func TestFabricRequeueRecoversFromDeadWorker(t *testing.T) {
	// A worker leases the cell and dies silently; TTL expiry must
	// re-issue it to a live worker and the job must still finish with
	// the correct result.
	const ttl = 300 * time.Millisecond
	computed, runner := countingRunner()
	srv, err := NewServer(Options{Store: newTestStore(t), Runner: runner, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	cfg := cheapCell("GDSF", 600)

	// Dead worker: takes the lease, never completes, never heartbeats.
	go func() {
		r := NewRemote(hs.URL)
		for {
			l, err := r.Lease(50 * time.Millisecond)
			if err != nil {
				return // server shut down
			}
			if l != nil {
				return // swallowed the lease; now play dead
			}
		}
	}()

	start := time.Now()
	resCh := make(chan experiments.RunResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := NewClient(hs.URL).Run(cfg)
		resCh <- res
		errCh <- err
	}()

	// Give the dead worker time to take the lease, then start a real
	// worker that can only get the cell via requeue.
	time.Sleep(100 * time.Millisecond)
	srv.StartLocalWorkers(1)

	select {
	case res := <-resCh:
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		want, err := experiments.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dropRingTelemetry(&res, &want)
		if !reflect.DeepEqual(res, want) {
			t.Fatal("requeued result differs from direct run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never recovered from the dead worker")
	}
	if computed.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computed.Load())
	}
	st := srv.Stats()
	if st.Scheduler.Requeues < 1 {
		t.Fatalf("no requeue recorded: %+v; recovery took %v", st.Scheduler, time.Since(start))
	}
}

func TestClientRunsTraceAtCellsLocally(t *testing.T) {
	// Cells carrying a process-local TraceAt handle cannot travel;
	// the client must run them in-process and still return a full,
	// correctly ordered batch. (Server has NO workers: if the cell
	// were submitted remotely the test would hang.)
	srv, err := NewServer(Options{Store: newTestStore(t), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	f, err := os.CreateTemp(t.TempDir(), "trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Two native-format records (time op addr len).
	if _, err := f.WriteString("0 R 0 8\n100 W 4000 8\n"); err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.RunConfig{
		Trace: "at-cell", Scale: experiments.QuickScale,
		Strategy: experiments.CRAID5, PCPct: 0.02,
		TraceAt: f, TraceAtSize: fi.Size(),
		TraceFormat: "native", DatasetBlocks: 50_000,
	}
	got, err := experiments.Collect(1, func(emit func(experiments.CellResult)) error {
		return NewClient(hs.URL).Execute([]experiments.RunConfig{cfg}, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Requests != 2 {
		t.Fatalf("TraceAt cell replayed %d records, want 2", got[0].Requests)
	}
}

// flakyHandler wraps an http.Handler, failing the first failN requests
// to each path with the configured status (0 = accept the request but
// truncate the response body before any result line is written).
type flakyHandler struct {
	inner  http.Handler
	status int
	failN  int32
	mu     sync.Mutex
	seen   map[string]int32
	total  atomic.Int64
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.total.Add(1)
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[string]int32{}
	}
	n := f.seen[r.URL.Path]
	f.seen[r.URL.Path] = n + 1
	f.mu.Unlock()
	if n < f.failN {
		if f.status == 0 {
			// 200 with an empty body: the client sees a result stream
			// that ends before every cell reported.
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "injected fault", f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestFabricClientRetriesTransientFailures pins the submit/stats retry
// policy: 5xx rejections and truncated result streams are retried with
// backoff until the batch lands, and the results match an in-process
// run (whole-batch resubmission is dedup-safe through Collect).
func TestFabricClientRetriesTransientFailures(t *testing.T) {
	_, runner := countingRunner()
	srv, err := NewServer(Options{Store: newTestStore(t), Runner: runner, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StartLocalWorkers(2)

	for _, tc := range []struct {
		name   string
		status int
	}{
		{"http-503", http.StatusServiceUnavailable},
		{"truncated-stream", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flaky := &flakyHandler{inner: srv.Handler(), status: tc.status, failN: 2}
			hs := httptest.NewServer(flaky)
			defer hs.Close()
			client := NewClient(hs.URL)
			client.SetRetryPolicy(3, time.Millisecond, time.Minute)

			cfgs := []experiments.RunConfig{cheapCell("LRU", 500), cheapCell("ARC", 500)}
			want, err := experiments.RunAll(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := experiments.Collect(len(cfgs), func(emit func(experiments.CellResult)) error {
				return client.Execute(cfgs, emit)
			})
			if err != nil {
				t.Fatalf("submit did not survive transient failures: %v", err)
			}
			for i := range want {
				dropRingTelemetry(&got[i], &want[i])
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("cell %d differs after retried submit:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if n := flaky.seen["/v1/jobs"]; n != 3 {
				t.Errorf("submit attempts = %d, want 2 failures + 1 success", n)
			}

			if _, err := client.Stats(); err != nil {
				t.Errorf("stats did not survive transient failures: %v", err)
			}
		})
	}
}

// TestFabricClientDoesNotRetryRejection pins the other half of the
// policy: a 4xx rejection is permanent — one attempt, no backoff.
func TestFabricClientDoesNotRetryRejection(t *testing.T) {
	flaky := &flakyHandler{
		inner:  http.NotFoundHandler(),
		status: http.StatusBadRequest,
		failN:  1 << 30,
	}
	hs := httptest.NewServer(flaky)
	defer hs.Close()
	client := NewClient(hs.URL)
	client.SetRetryPolicy(3, time.Millisecond, time.Minute)

	_, err := experiments.Collect(1, func(emit func(experiments.CellResult)) error {
		return client.Execute([]experiments.RunConfig{cheapCell("LRU", 500)}, emit)
	})
	if err == nil || !strings.Contains(err.Error(), "job rejected") {
		t.Fatalf("expected permanent rejection, got %v", err)
	}
	if n := flaky.total.Load(); n != 1 {
		t.Fatalf("4xx retried: %d attempts, want 1", n)
	}
}
