// Package sim implements a deterministic discrete-event simulation
// engine. It is the substrate under every timed experiment in this
// repository: disks, RAID controllers and the CRAID core all advance a
// shared simulated clock by scheduling callbacks on an Engine.
//
// The engine is intentionally single-threaded: determinism matters more
// than parallelism here because experiments assert on exact, repeatable
// results. Events scheduled for the same instant fire in FIFO order.
//
// # Cost
//
// Future events wait in one slice kept sorted by instant; firing the
// earliest is an index increment, and scheduling is an insertion from
// the back, O(pending). That is the right trade for what runs on it.
// Every pending event is a request some device has in flight, a trace
// arrival or a fault-plan trigger, so
//
//	pending <= devices x requests in flight per device + one arrival
//
// (in flight: an HDD's one media access plus the writes its cache is
// absorbing, an SSD's overlapped operations). Counted at every insert
// into the timed queue during experiments.Run, over one seed-1 round of
// each benchmark workload, the queue holds on average, the new event
// included, 3.7 events on fig4-timed-hit, 9.0 on fault-upgrade and 14.3
// on msr-miss (table2-instant's instant devices leave only the next
// arrival), and 93 at most; an insert lands at or near the back, moving
// 0.8, 5.3 and 5.3 events respectively. The largest seen anywhere is
// 571, while craidbench -table fault rebuilds disks under a compressed
// trace. A heap would win from a hundred or so events pending at random
// positions, a timing wheel from a few hundred.
// Engine.SchedStats().MaxPending reports the high-water
// mark of every run and BenchmarkEngineTimed records the ns/event curve
// from 4 to 4,096 pending (README, "Event engine"), so a workload that
// outgrows the assumption shows up as a number.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Time is a simulated instant, measured in integer nanoseconds from the
// start of the simulation. Integer time keeps event ordering exact; all
// latency math converts to nanoseconds at the edges.
type Time int64

// Common simulated durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Hour        Time = 3600 * Second
)

// MaxTime is the largest representable simulated instant.
const MaxTime Time = math.MaxInt64

// Duration converts a standard library duration to simulated time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the instant with millisecond precision, e.g. "12.345ms".
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

// Event is a scheduled callback. Exactly one of fn/tfn is set; tfn
// receives the firing instant, letting completion callbacks schedule
// without a capturing closure.
type event struct {
	at  Time
	fn  func()
	tfn func(Time)
}

// SchedStats counts one engine's scheduler activity, cumulatively.
type SchedStats struct {
	Fired      int64 // events dispatched (timed queue + same-instant ring)
	Ring       int64 // of Fired, same-instant ring events
	MaxPending int64 // high-water mark of the timed queue's length
}

// globalFired is Fired summed over every engine in the process.
var globalFired atomic.Int64

// GlobalSchedStats returns the process-wide count of events fired — the
// one counter aggregated across engines (the benchmark divides it by
// records); Ring and MaxPending are per engine only and zero here.
// Engines flush when Run/RunUntil returns, so the total is exact between
// runs.
func GlobalSchedStats() SchedStats {
	return SchedStats{Fired: globalFired.Load()}
}

// Engine is a discrete-event simulation loop. The zero value is not
// usable; create one with NewEngine.
//
// Future events wait in queue[head:], sorted by instant, with events of
// one instant in the order they were scheduled. That order — the
// engine's whole contract — holds by construction: a new event is
// younger than everything queued, so inserting it from the back after
// every event with at <= its own is exactly (instant, schedule order),
// with no sequence number to compare.
//
// Events scheduled for the *current* instant bypass the timed queue
// into a FIFO ring: zero-delay completions (instant devices, same-tick
// callback chains) dominate many workloads and need no ordering work
// beyond arrival order. Correctness of the split: once the clock
// reaches T, every new at=T event lands in the ring, after all at=T
// events still in the timed queue (which were scheduled while now < T),
// so draining queue-at-T before the ring preserves global FIFO order
// among same-instant events.
type Engine struct {
	now      Time
	queue    []event // timed events: queue[head:] is live, queue[:head] fired
	head     int
	ring     []event // FIFO of events due at the current instant
	ringHead int
	stopped  bool
	stats    SchedStats // cumulative for this engine
	flushed  int64      // portion of stats.Fired already in globalFired
}

// NewEngine returns an engine with the clock at zero and no pending
// events.
func NewEngine() *Engine { return &Engine{} }

// SchedStats returns this engine's cumulative scheduler counters.
func (e *Engine) SchedStats() SchedStats { return e.stats }

// flushStats publishes the events fired since the last flush to the
// process-wide count.
func (e *Engine) flushStats() {
	globalFired.Add(e.stats.Fired - e.flushed)
	e.flushed = e.stats.Fired
}

// pop removes and returns the earliest timed event; the queue must not
// be empty.
func (e *Engine) pop() event {
	ev := e.queue[e.head]
	e.queue[e.head] = event{} // release callback references
	e.head++
	if e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	return ev
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.queue) - e.head + len(e.ring) - e.ringHead }

// Schedule registers fn to run at the absolute simulated instant at.
// Scheduling in the past (at < Now) panics: it always indicates a
// modelling bug, and silently clamping would corrupt causality.
func (e *Engine) Schedule(at Time, fn func()) { e.schedule(event{at: at, fn: fn}) }

// After registers fn to run delay nanoseconds after the current
// instant; a negative delay is scheduling in the past, and panics.
func (e *Engine) After(delay Time, fn func()) { e.schedule(event{at: e.now + delay, fn: fn}) }

// AfterTimed registers fn to run delay nanoseconds after the current
// instant, receiving the firing instant.
func (e *Engine) AfterTimed(delay Time, fn func(Time)) {
	e.schedule(event{at: e.now + delay, tfn: fn})
}

// schedule files ev: in the ring if it is due now, else in the timed
// queue behind every event due at or before it.
func (e *Engine) schedule(ev event) {
	if ev.at <= e.now {
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", ev.at, e.now))
		}
		e.ring = append(e.ring, ev)
		return
	}
	q := e.queue
	if len(q) == cap(q) && e.head > len(q)-e.head {
		// Out of room with a fired prefix longer than the live part:
		// copy down instead of growing. Each copy frees more than half
		// the array, so it costs O(1) per event however long the run.
		n := copy(q, q[e.head:])
		clear(q[n:]) // the vacated copies still hold callbacks
		q, e.head = q[:n], 0
	}
	q = append(q, ev)
	i := len(q) - 1
	for i > e.head && q[i-1].at > ev.at {
		q[i] = q[i-1]
		i--
	}
	q[i] = ev
	e.queue = q
	if n := int64(len(q) - e.head); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
}

// Stop makes the currently running Run/RunUntil return after the event
// being processed completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool {
	var ev event
	timed := e.head < len(e.queue)
	switch {
	case timed && e.queue[e.head].at == e.now:
		// Timed-queue events due now predate everything in the ring.
		ev = e.pop()
	case e.ringHead < len(e.ring):
		ev = e.ring[e.ringHead]
		e.ring[e.ringHead] = event{} // release callback references
		e.ringHead++
		if e.ringHead == len(e.ring) {
			e.ring, e.ringHead = e.ring[:0], 0
		}
		e.stats.Ring++
	case timed:
		ev = e.pop() // the ring is empty: safe to advance the clock
	default:
		return false
	}
	e.stats.Fired++
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.tfn(ev.at)
	}
	return true
}

// Run processes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.flushStats()
}

// RunUntil processes events with timestamps <= deadline, then advances
// the clock to deadline (if it is in the future) and returns. Events
// scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if e.ringHead < len(e.ring) && e.now <= deadline {
			e.Step()
			continue
		}
		if e.head < len(e.queue) && e.queue[e.head].at <= deadline {
			e.Step()
			continue
		}
		break
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.flushStats()
}
