package core

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
)

// errAfterReader yields n good records, then a parse error.
type errAfterReader struct {
	n   int
	err error
}

func (e *errAfterReader) Next() (trace.Record, error) {
	if e.n <= 0 {
		return trace.Record{}, e.err
	}
	e.n--
	return trace.Record{Op: disk.OpRead, Block: int64(e.n), Count: 1}, nil
}

func TestReplayParseErrorStopsAndPropagates(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	want := errors.New("bad line")
	n, err := Replay(eng, c, &errAfterReader{n: 10, err: want})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if n != 10 {
		t.Fatalf("replayed %d records before the error, want 10", n)
	}
	checkInvariants(t, c)
}

func TestReplayEmptyTrace(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	n, err := Replay(eng, c, trace.NewSlice(nil))
	if err != nil || n != 0 {
		t.Fatalf("empty trace: n=%d err=%v", n, err)
	}
}

func TestReplayErrorOnFirstRecord(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	want := errors.New("corrupt header")
	n, err := Replay(eng, c, &errAfterReader{n: 0, err: want})
	if !errors.Is(err, want) || n != 0 {
		t.Fatalf("n=%d err=%v, want 0/%v", n, err, want)
	}
}

// TestReplayStreamsManyBatches replays well past the ring capacity so
// the refill path (reader ahead of, level with, and behind the
// simulation) is exercised, and checks nothing is dropped, duplicated
// or reordered.
func TestReplayStreamsManyBatches(t *testing.T) {
	const records = replayBatchSize*replayRingDepth*3 + 17
	recs := make([]trace.Record, records)
	for i := range recs {
		recs[i] = trace.Record{
			Time:  sim.Time(i) * sim.Microsecond,
			Op:    disk.OpRead,
			Block: int64(i % 4000),
			Count: 1,
		}
	}
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	n, err := Replay(eng, c, trace.NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("replayed %d records, want %d", n, records)
	}
	if got := c.Stats().ReadBlocks; got != records {
		t.Fatalf("volume saw %d blocks, want %d", got, records)
	}
	checkInvariants(t, c)
}

// slowReader paces the parser slower than the simulation to force the
// "ring drained" path (one real sleep per would-be batch keeps the
// test fast while still starving the ring).
type slowReader struct {
	inner trace.Reader
	n     int
}

func (s *slowReader) Next() (trace.Record, error) {
	s.n++
	if s.n%replayBatchSize == 0 {
		time.Sleep(time.Millisecond)
	} else {
		runtime.Gosched()
	}
	return s.inner.Next()
}

func TestReplaySurvivesSlowParser(t *testing.T) {
	recs := make([]trace.Record, 2*replayBatchSize)
	for i := range recs {
		recs[i] = trace.Record{Op: disk.OpWrite, Block: int64(i % 100), Count: 1}
	}
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	n, err := Replay(eng, c, &slowReader{inner: trace.NewSlice(recs)})
	if err != nil || n != int64(len(recs)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	checkInvariants(t, c)
}

// TestReplayReaderGoroutineExits pins that Replay does not leak its
// reader goroutine — neither on clean EOF nor when the replay aborts
// with the reader mid-stream.
func TestReplayReaderGoroutineExits(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		eng := sim.NewEngine()
		c, _ := newTestCRAID(eng, 64)
		if _, err := Replay(eng, c, trace.NewSlice(make([]trace.Record, 10))); err != nil {
			// Zero-value records are Count=0 reads; Submit tolerates
			// them, so no error is expected.
			t.Fatal(err)
		}
		// Abort path: error long before the stream ends keeps the
		// reader blocked on a full ring until stop() releases it.
		eng2 := sim.NewEngine()
		c2, _ := newTestCRAID(eng2, 64)
		big := make([]trace.Record, 100*replayBatchSize)
		_, _ = Replay(eng2, c2, &errorThenStream{recs: trace.NewSlice(big)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d: reader leak", base, got)
	}
}

// errorThenStream fails the third record so the replay aborts while the
// reader still has plenty to stream.
type errorThenStream struct {
	recs trace.Reader
	n    int
}

func (e *errorThenStream) Next() (trace.Record, error) {
	e.n++
	if e.n == 3 {
		return trace.Record{}, errors.New("abort")
	}
	rec, err := e.recs.Next()
	if err == io.EOF {
		return trace.Record{}, io.EOF
	}
	return rec, err
}

// TestReplayWithStatsShape pins the deterministic parts of
// ReplayStats: record and batch counts follow the configured batch
// size, and the high-water mark stays within the ring.
func TestReplayWithStatsShape(t *testing.T) {
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{Op: disk.OpRead, Block: int64(i % 50), Count: 1}
	}
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	cfg := ReplayConfig{BatchSize: 8, RingDepth: 2}
	n, st, err := ReplayWith(eng, c, trace.NewSlice(recs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || st.Records != 100 {
		t.Fatalf("records: n=%d stats=%d, want 100", n, st.Records)
	}
	if want := int64(13); st.Batches != want { // ceil(100/8)
		t.Fatalf("batches = %d, want %d", st.Batches, want)
	}
	if st.RingHighWater < 1 || st.RingHighWater > cfg.RingDepth {
		t.Fatalf("ring high water %d outside [1, %d]", st.RingHighWater, cfg.RingDepth)
	}
	if st.ReaderStalls < 0 || st.ReplayStalls < 0 {
		t.Fatalf("negative stall counters: %+v", st)
	}
	checkInvariants(t, c)
}

// stallReader yields the first batch instantly, then blocks batch 2
// on a gate the consumer opens only after fully draining batch 1 — so
// the simulation is at the empty ring, deterministically, when the
// parser resumes. That is the "parser is the bottleneck" case
// ReplayStalls is specified to count (the pipeline-filling wait for
// the very first batch is exempt).
type stallReader struct {
	inner trace.Reader
	gate  chan struct{}
	n     int
}

func (s *stallReader) Next() (trace.Record, error) {
	s.n++
	if s.n == replayBatchSize+1 {
		<-s.gate
	}
	return s.inner.Next()
}

// gateVolume opens the gate once batch 1's last record is submitted.
type gateVolume struct {
	Volume
	gate chan struct{}
	n    int
}

func (g *gateVolume) Submit(rec trace.Record, done func(sim.Time)) error {
	err := g.Volume.Submit(rec, done)
	g.n++
	if g.n == replayBatchSize {
		close(g.gate)
	}
	return err
}

func TestReplayWithSlowParserCountsStalls(t *testing.T) {
	recs := make([]trace.Record, 2*replayBatchSize)
	for i := range recs {
		recs[i] = trace.Record{Op: disk.OpWrite, Block: int64(i % 100), Count: 1}
	}
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	gate := make(chan struct{})
	n, st, err := ReplayWith(eng, &gateVolume{Volume: c, gate: gate},
		&stallReader{inner: trace.NewSlice(recs), gate: gate}, ReplayConfig{})
	if err != nil || n != int64(len(recs)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if st.ReplayStalls < 1 {
		t.Errorf("stalled parser produced no replay stalls: %+v", st)
	}
	checkInvariants(t, c)
}

// TestReplayDefaultsUnchanged pins that the zero ReplayConfig keeps
// the documented defaults.
func TestReplayDefaultsUnchanged(t *testing.T) {
	cfg := ReplayConfig{}.withDefaults()
	if cfg.BatchSize != replayBatchSize || cfg.RingDepth != replayRingDepth {
		t.Fatalf("defaults = %+v, want {%d %d}", cfg, replayBatchSize, replayRingDepth)
	}
}
