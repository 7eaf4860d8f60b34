package mapcache

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// driveLog applies a deterministic mutation workload to a fresh table
// logging into w, calling stepDone at pseudo-random "apply step"
// boundaries the way the controller flushes per I/O request.
func driveLog(t *testing.T, w interface {
	Write([]byte) (int, error)
}, steps int, seed int64, stepDone func()) {
	t.Helper()
	tb := New()
	tb.SetLog(w)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		orig := rng.Int63n(4000)
		switch rng.Intn(5) {
		case 0:
			tb.InsertRun(orig, rng.Int63n(10000), 1+rng.Int63n(16), rng.Intn(2) == 0)
		case 1:
			tb.RemoveRun(orig, 1+rng.Int63n(16))
		case 2:
			tb.SetDirtyRun(orig, 1+rng.Int63n(16), true)
		case 3:
			tb.SetDirtyRun(orig, 1+rng.Int63n(16), false)
		case 4:
			tb.Insert(Mapping{Orig: orig, Cache: rng.Int63n(10000), Dirty: rng.Intn(2) == 0})
		}
		if rng.Intn(3) == 0 {
			stepDone()
		}
	}
	stepDone()
}

// TestLogRingStreamIdentical pins the core contract: the byte stream a
// LogRing delivers is exactly the stream a synchronous log writes —
// same records, same order — across buffer rollovers and arbitrary
// flush boundaries.
func TestLogRingStreamIdentical(t *testing.T) {
	var syncBuf bytes.Buffer
	driveLog(t, &syncBuf, 400, 42, func() {})

	var ringBuf bytes.Buffer
	// Tiny buffers force mid-step rollovers.
	ring := NewLogRing(&ringBuf, 3*recordSize, 2)
	driveLog(t, ring, 400, 42, ring.Flush)
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(syncBuf.Bytes(), ringBuf.Bytes()) {
		t.Fatalf("ring stream diverged from synchronous stream (%d vs %d bytes)",
			ringBuf.Len(), syncBuf.Len())
	}
	st := ring.Stats()
	if st.Records == 0 || st.Flushes == 0 || st.Bytes != int64(syncBuf.Len()) {
		t.Fatalf("implausible ring stats %+v for %d log bytes", st, syncBuf.Len())
	}
}

// TestLogRingCrashCutRecovery is the batched-flush recovery property: a
// log written through the ring and cut at an arbitrary byte — including
// mid-record, the torn tail of a flush that was interrupted — recovers
// exactly the mappings a synchronously-written log cut at the same byte
// recovers.
func TestLogRingCrashCutRecovery(t *testing.T) {
	var syncBuf bytes.Buffer
	driveLog(t, &syncBuf, 300, 7, func() {})

	var ringBuf bytes.Buffer
	ring := NewLogRing(&ringBuf, 64, 3)
	driveLog(t, ring, 300, 7, ring.Flush)
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}

	total := syncBuf.Len()
	cuts := []int{0, 1, recordSize - 1, recordSize, total / 3, total/3 + 5, total - 1, total}
	for _, cut := range cuts {
		want, err := Recover(bytes.NewReader(syncBuf.Bytes()[:cut]))
		if err != nil {
			t.Fatalf("cut %d: sync recover: %v", cut, err)
		}
		got, err := Recover(bytes.NewReader(ringBuf.Bytes()[:cut]))
		if err != nil {
			t.Fatalf("cut %d: ring recover: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d: recovered %d mappings, want %d (contents diverged)", cut, len(got), len(want))
		}
	}
}

// errAfterWriter fails every Write after the first n bytes, simulating
// a log device that dies mid-stream.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("log device gone")
	}
	w.written += len(p)
	return len(p), nil
}

// TestLogRingCloseReportsWriteError pins that asynchronous write
// failures surface at Close (the producer's Write never fails, like the
// best-effort synchronous log) and that a failing device cannot wedge
// the producer.
func TestLogRingCloseReportsWriteError(t *testing.T) {
	ring := NewLogRing(&errAfterWriter{n: 2 * recordSize}, recordSize, 2)
	rec := make([]byte, recordSize)
	for i := 0; i < 50; i++ {
		if _, err := ring.Write(rec); err != nil {
			t.Fatalf("producer Write failed: %v", err)
		}
		ring.Flush()
	}
	if err := ring.Close(); err == nil {
		t.Fatal("Close reported no error from a dead log device")
	}
	if err := ring.Close(); err == nil {
		t.Fatal("second Close lost the error")
	}
}

// syncBuffer is a bytes.Buffer with an fsync hook, counting Sync calls
// and remembering the byte length at the last one — the durable prefix
// a crash would leave behind under sync-on-flush.
type syncBuffer struct {
	bytes.Buffer
	syncs       int
	durableSize int
}

func (b *syncBuffer) Sync() error {
	b.syncs++
	b.durableSize = b.Len()
	return nil
}

// TestLogRingSyncOnFlush is the MapLogSync crash-recovery property at
// BOTH knob settings: the byte stream (and therefore recovery at any
// cut) is identical with and without fsync-on-flush; with the knob on,
// the writer syncs once per flushed buffer, so every completed flush is
// inside the durable prefix and recovering exactly that prefix equals
// recovering a synchronous log cut there.
func TestLogRingSyncOnFlush(t *testing.T) {
	var plain bytes.Buffer
	driveLog(t, &plain, 300, 11, func() {})

	for _, syncOn := range []bool{false, true} {
		var buf syncBuffer
		ring := NewLogRing(&buf, 4*recordSize, 2)
		ring.SetSyncOnFlush(syncOn)
		driveLog(t, ring, 300, 11, ring.Flush)
		if err := ring.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), buf.Bytes()) {
			t.Fatalf("sync=%v: stream diverged from synchronous log", syncOn)
		}
		st := ring.Stats()
		if syncOn {
			if buf.syncs == 0 || st.Syncs != int64(buf.syncs) {
				t.Fatalf("sync=on: %d fsyncs observed, stats say %d", buf.syncs, st.Syncs)
			}
			if buf.durableSize != buf.Len() {
				t.Fatalf("sync=on: durable prefix %d != stream %d after Close", buf.durableSize, buf.Len())
			}
			// Crash at the durable boundary: recovery there must match a
			// synchronous log cut at the same byte.
			want, err := Recover(bytes.NewReader(plain.Bytes()[:buf.durableSize]))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Recover(bytes.NewReader(buf.Bytes()[:buf.durableSize]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sync=on: durable-prefix recovery diverged (%d vs %d mappings)", len(got), len(want))
			}
		} else if buf.syncs != 0 || st.Syncs != 0 {
			t.Fatalf("sync=off: writer fsynced %d times (stats %d)", buf.syncs, st.Syncs)
		}
	}
}

// TestLogRingStallCounting pins that a writer slower than the producer
// shows up in Stalls rather than in unbounded memory.
func TestLogRingStallCounting(t *testing.T) {
	var sink bytes.Buffer
	ring := NewLogRing(&sink, recordSize, 1) // depth 1: third hand-off must stall
	rec := make([]byte, recordSize)
	for i := 0; i < 64; i++ {
		ring.Write(rec)
		ring.Flush()
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	st := ring.Stats()
	if st.Flushes != 64 {
		t.Fatalf("expected 64 flushes, got %+v", st)
	}
	if sink.Len() != 64*recordSize {
		t.Fatalf("sink holds %d bytes, want %d", sink.Len(), 64*recordSize)
	}
}

// TestLogRingErrSticky pins the asynchronous error surface the
// controller polls at each flush step: the first background write
// failure is visible through Err before Close, stays sticky, and is
// what Barrier returns from then on.
func TestLogRingErrSticky(t *testing.T) {
	ring := NewLogRing(&errAfterWriter{n: 2 * recordSize}, recordSize, 2)
	rec := make([]byte, recordSize)
	for i := 0; i < 50; i++ {
		ring.Write(rec)
		ring.Flush()
	}
	if err := ring.Barrier(); err == nil {
		t.Fatal("Barrier after a dead log device reported no error")
	}
	if err := ring.Err(); err == nil {
		t.Fatal("Err not sticky before Close")
	}
	if err := ring.Close(); err == nil {
		t.Fatal("Close lost the sticky error")
	}
	if err := ring.Err(); err == nil {
		t.Fatal("Err not sticky after Close")
	}
}

// TestLogRingBarrierMakesBytesVisible pins the crash-source contract
// the fault runtime relies on: after Barrier returns, every record
// written so far is in the underlying sink — a reader over the sink
// sees the full synchronous stream, mid-run, without closing the ring.
func TestLogRingBarrierMakesBytesVisible(t *testing.T) {
	var plain bytes.Buffer
	driveLog(t, &plain, 200, 13, func() {})

	var sink bytes.Buffer
	ring := NewLogRing(&sink, 4*recordSize, 3)
	step := 0
	driveLog(t, ring, 200, 13, func() {
		step++
		if step%7 == 0 { // barrier at scattered mid-run boundaries
			if err := ring.Barrier(); err != nil {
				t.Fatal(err)
			}
			// Everything accepted so far must be in the sink, and the
			// sink must be a prefix of the synchronous stream.
			if int64(sink.Len()) != ring.Stats().Bytes {
				t.Fatalf("step %d: sink holds %d bytes, ring accepted %d",
					step, sink.Len(), ring.Stats().Bytes)
			}
			if !bytes.HasPrefix(plain.Bytes(), sink.Bytes()) {
				t.Fatalf("step %d: sink is not a prefix of the synchronous stream", step)
			}
		} else {
			ring.Flush()
		}
	})
	if err := ring.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), plain.Bytes()) {
		t.Fatalf("post-Barrier sink (%d bytes) != synchronous stream (%d bytes)",
			sink.Len(), plain.Len())
	}
	if err := ring.Close(); err != nil {
		t.Fatal(err)
	}
	// Barrier on a closed ring is a safe no-op reporting the sticky
	// error state (nil here) — it must not wedge on the dead writer.
	if err := ring.Barrier(); err != nil {
		t.Fatalf("Barrier on a closed healthy ring: %v", err)
	}
}
