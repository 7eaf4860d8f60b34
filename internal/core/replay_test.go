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
	st, err := Replay(eng, c, &errAfterReader{n: 10, err: want})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if st.Records != 10 {
		t.Fatalf("replayed %d records before the error, want 10", st.Records)
	}
	checkInvariants(t, c)
}

func TestReplayEmptyTrace(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	st, err := Replay(eng, c, trace.NewSlice(nil))
	if err != nil || st.Records != 0 {
		t.Fatalf("empty trace: n=%d err=%v", st.Records, err)
	}
}

func TestReplayErrorOnFirstRecord(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	want := errors.New("corrupt header")
	st, err := Replay(eng, c, &errAfterReader{n: 0, err: want})
	if !errors.Is(err, want) || st.Records != 0 {
		t.Fatalf("n=%d err=%v, want 0/%v", st.Records, err, want)
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
	st, err := Replay(eng, c, trace.NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != records {
		t.Fatalf("replayed %d records, want %d", st.Records, records)
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
	st, err := Replay(eng, c, &slowReader{inner: trace.NewSlice(recs)})
	if err != nil || st.Records != int64(len(recs)) {
		t.Fatalf("n=%d err=%v", st.Records, err)
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
// ReplayStats on a small ring: record and batch counts follow its batch
// size, and the high-water mark stays within it.
func TestReplayWithStatsShape(t *testing.T) {
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{Op: disk.OpRead, Block: int64(i % 50), Count: 1}
	}
	eng := sim.NewEngine()
	c, _ := newTestCRAID(eng, 64)
	const batchSize, depth = 8, 2
	st, err := replay(eng, c, trace.NewSlice(recs), batchSize, depth)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 100 {
		t.Fatalf("records = %d, want 100", st.Records)
	}
	if want := int64(13); st.Batches != want { // ceil(100/8)
		t.Fatalf("batches = %d, want %d", st.Batches, want)
	}
	if st.RingHighWater < 1 || st.RingHighWater > depth {
		t.Fatalf("ring high water %d outside [1, %d]", st.RingHighWater, depth)
	}
	if st.ReaderStalls < 0 || st.ReplayStalls < 0 {
		t.Fatalf("negative stall counters: %+v", st)
	}
	checkInvariants(t, c)
}

// stallReader yields the first batch instantly, then blocks batch 2
// on a gate the consumer opens while submitting batch 1's last record —
// so the simulation usually reaches the empty ring before the parser
// resumes. That is the "parser is the bottleneck" case ReplayStalls is
// specified to count (the pipeline-filling wait for the very first
// batch is exempt).
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

// TestReplayWithSlowParserCountsStalls replays behind a gated parser
// until a stall is counted. No gate can make the stall certain: the
// volume opens it from inside batch 1's last Submit, which runs before
// the consumer goes back to the ring, and nothing outside Replay can
// wait for that. On a loaded host the reader then sometimes hands
// batch 2 over first and the consumer never waits. One attempt in 20
// that stalls shows the counter works; every attempt must replay
// everything correctly.
func TestReplayWithSlowParserCountsStalls(t *testing.T) {
	recs := make([]trace.Record, 2*replayBatchSize)
	for i := range recs {
		recs[i] = trace.Record{Op: disk.OpWrite, Block: int64(i % 100), Count: 1}
	}
	var st ReplayStats
	for attempt := 0; attempt < 20 && st.ReplayStalls == 0; attempt++ {
		eng := sim.NewEngine()
		c, _ := newTestCRAID(eng, 64)
		gate := make(chan struct{})
		var err error
		st, err = Replay(eng, &gateVolume{Volume: c, gate: gate},
			&stallReader{inner: trace.NewSlice(recs), gate: gate})
		if err != nil || st.Records != int64(len(recs)) {
			t.Fatalf("attempt %d: n=%d err=%v", attempt, st.Records, err)
		}
		if st.Batches != 2 || st.ReplayStalls < 0 || st.ReaderStalls < 0 {
			t.Fatalf("attempt %d: stats %+v, want 2 batches and no negative counter", attempt, st)
		}
		checkInvariants(t, c)
	}
	if st.ReplayStalls < 1 {
		t.Errorf("stalled parser produced no replay stalls in 20 attempts: %+v", st)
	}
}
