package core

import (
	"io"
	"sync/atomic"

	"craid/internal/sim"
	"craid/internal/trace"
)

// Replay ring size. The ring holds replayRingDepth batches of up to
// replayBatchSize pre-parsed records, so resident memory is bounded at
// depth × batch records (~256 KiB) regardless of trace length, while
// the reader goroutine stays far enough ahead that the simulation never
// stalls on parsing.
const (
	replayBatchSize = 1024
	replayRingDepth = 4
)

// ReplayStats reports what the replay pipeline did: throughput shape
// and back-pressure between the reader goroutine and the simulation.
//
// ReaderStalls counts the reader finding the ring full
// (the simulation is the bottleneck — the healthy steady state);
// ReplayStalls counts the ring's consumer finding it empty after at
// least one batch was consumed (parsing is the bottleneck — consider a
// deeper ring, bigger batches, or a per-volume split; the initial
// pipeline-filling wait is exempt). RingHighWater is the most filled
// batches resident at once, bounded by the ring depth.
type ReplayStats struct {
	Records       int64
	Batches       int64
	RingHighWater int
	ReaderStalls  int64
	ReplayStalls  int64
}

// replayBatch is one ring slot: records plus the terminal error (io.EOF
// or a parse failure) hit while filling it, if any.
type replayBatch struct {
	recs []trace.Record
	err  error
}

// recordSource streams pre-parsed batches from a reader goroutine to
// the simulation goroutine. Exhausted batch slices return to the free
// ring, so steady-state replay recycles the same depth×size records.
type recordSource struct {
	batches chan replayBatch
	free    chan []trace.Record
	quit    chan struct{}

	// Counters the reader goroutine writes or shares with the
	// simulation, hence atomics. resident counts filled batches handed
	// off but not yet consumed — tracked explicitly rather than via
	// len(batches), which misses a send handed directly to an
	// already-blocked receiver.
	readerStalls atomic.Int64
	resident     atomic.Int64
	highWater    atomic.Int64

	// Simulation-goroutine only.
	taken        int64 // filled batches taken
	replayStalls int64
}

// startRecordSource launches the reader goroutine pumping r's records
// into a ring of depth batches of batchSize records. The caller must
// invoke stop() when done (idempotent with respect to a reader that
// already finished).
func startRecordSource(r trace.Reader, batchSize, depth int) *recordSource {
	s := &recordSource{
		batches: make(chan replayBatch, depth),
		free:    make(chan []trace.Record, depth),
		quit:    make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		s.free <- make([]trace.Record, 0, batchSize)
	}
	go func() {
		for {
			var buf []trace.Record
			select {
			case buf = <-s.free:
			default:
				// Ring full: every slot is parsed and waiting. This is
				// back-pressure working — block until the simulation
				// frees a slot (or the replay stops).
				s.readerStalls.Add(1)
				select {
				case buf = <-s.free:
				case <-s.quit:
					return
				}
			}
			buf = buf[:0]
			var err error
			for len(buf) < cap(buf) {
				var rec trace.Record
				rec, err = r.Next()
				if err != nil {
					break
				}
				buf = append(buf, rec)
			}
			// Count the filled batch as resident before handing it
			// off: incrementing after the send races a direct handoff
			// to an already-blocked receiver (the consumer could
			// decrement first and the high-water mark under-report).
			occ := s.resident.Add(1)
			if depth := int64(cap(s.batches)); occ > depth {
				// The reader itself holds the +1 while blocked on a
				// full ring; occupancy is the full depth.
				occ = depth
			}
			select {
			case s.batches <- replayBatch{recs: buf, err: err}:
				// The reader is highWater's only writer, so a plain
				// load-compare-store max is race-free.
				if occ > s.highWater.Load() {
					s.highWater.Store(occ)
				}
			case <-s.quit:
				return
			}
			if err != nil {
				return // EOF or parse error: the stream is over
			}
		}
	}()
	return s
}

// take pops the next filled batch, blocking until one is ready and
// counting a stall when the ring is empty after the pipeline has
// already delivered a batch (the first wait is the pipeline filling,
// not the parser falling behind). ok=false only during teardown.
func (s *recordSource) take() (b replayBatch, ok bool) {
	select {
	case b = <-s.batches:
	default:
		if s.taken > 0 {
			s.replayStalls++
		}
		select {
		case b = <-s.batches:
		case <-s.quit:
			return replayBatch{}, false
		}
	}
	s.resident.Add(-1)
	s.taken++
	return b, true
}

// stop terminates the reader goroutine.
func (s *recordSource) stop() { close(s.quit) }

// batchCursor drains batches one record at a time on the simulation
// goroutine, recycling drained record slices through the free ring.
type batchCursor struct {
	src *recordSource

	cur     replayBatch
	pos     int
	records int64
	batches int64
	err     error // first non-EOF error from the reader
}

// next returns the next record. ok=false means the stream ended — by
// EOF, teardown, or the error left in err.
func (cu *batchCursor) next() (trace.Record, bool) {
	for {
		if cu.pos < len(cu.cur.recs) {
			rec := cu.cur.recs[cu.pos]
			cu.pos++
			cu.records++
			return rec, true
		}
		if cu.cur.err != nil {
			if cu.cur.err != io.EOF {
				cu.err = cu.cur.err
			}
			return trace.Record{}, false
		}
		if cu.cur.recs != nil {
			cu.src.free <- cu.cur.recs
		}
		b, ok := cu.src.take()
		if !ok {
			return trace.Record{}, false
		}
		cu.cur, cu.pos = b, 0
		if len(b.recs) > 0 {
			cu.batches++
		}
	}
}

// Replay feeds a trace into vol, submitting each record at its recorded
// time, and runs the engine until all I/O completes. It returns the
// pipeline's statistics, whose Records is the number of requests
// replayed, also when the error is not nil. Records must be
// time-ordered (all readers in internal/trace and the generators in
// internal/workload produce ordered streams). Anything that happens
// mid-run (an expansion, a periodic report) is an event the caller
// schedules on eng before calling Replay; it fires ahead of any record
// due at the same instant.
//
// Parsing runs off the simulation path: a reader goroutine pre-parses
// records into a bounded ring of batches, and the simulation pumps
// records out of the current batch — so multi-GB traces replay in
// constant memory without the event loop stalling on the parser between
// events, and a slow reader only ever blocks the simulation when the
// whole ring has drained.
func Replay(eng *sim.Engine, vol Volume, r trace.Reader) (ReplayStats, error) {
	return replay(eng, vol, r, replayBatchSize, replayRingDepth)
}

// replay is Replay over a ring of depth batches of batchSize records;
// the back-pressure tests use a small one.
func replay(eng *sim.Engine, vol Volume, r trace.Reader, batchSize, depth int) (ReplayStats, error) {
	src := startRecordSource(r, batchSize, depth)
	defer src.stop()
	cu := &batchCursor{src: src}

	// The replay keeps exactly one record in flight between schedule and
	// pump (pump re-schedules only after submitting), so the pending
	// record parks in a captured local and the same two closures carry the
	// whole trace — no per-record allocation.
	var pump func()
	var pend trace.Record
	var subErr error
	schedule := func() {
		rec, ok := cu.next()
		if !ok {
			if cu.err != nil {
				eng.Stop()
			}
			return
		}
		at := rec.Time
		if at < eng.Now() {
			at = eng.Now() // tolerate tiny reordering from parsers
		}
		pend = rec
		eng.Schedule(at, pump)
	}
	pump = func() {
		if err := vol.Submit(pend, nil); err != nil {
			// A record the volume could not serve correctly — data lost
			// beyond redundancy — ends the replay: the remaining trace
			// would run against a volume known broken.
			subErr = err
			eng.Stop()
			return
		}
		schedule()
	}

	schedule()
	eng.Run()
	// Every record next() hands out is pumped before the stream can
	// end (the error path only stops the engine after the last pump),
	// so the cursor's count is the replayed count.
	st := ReplayStats{
		Records:       cu.records,
		Batches:       cu.batches,
		RingHighWater: int(src.highWater.Load()),
		ReaderStalls:  src.readerStalls.Load(),
		ReplayStalls:  src.replayStalls,
	}
	if subErr != nil {
		return st, subErr
	}
	return st, cu.err
}
