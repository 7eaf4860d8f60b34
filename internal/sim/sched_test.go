package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the engine's independent oracle: the textbook binary
// min-heap ordered by an explicit (at, seq) key. It shares no code and
// no representation with Engine — no sorted slice, no same-instant
// ring, no implicit ordering — so a bug in either trick shows up as a
// different firing log rather than cancelling out.
type refEngine struct {
	now     Time
	seq     uint64
	heap    []refEvent
	stopped bool
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.heap) }
func (r *refEngine) Stop()        { r.stopped = true }

func (r *refEngine) Schedule(at Time, fn func()) {
	if at < r.now {
		panic("ref: schedule in the past")
	}
	r.seq++
	h := append(r.heap, refEvent{at, r.seq, fn})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	r.heap = h
}

func (r *refEngine) After(d Time, fn func()) { r.Schedule(r.now+d, fn) }

func (r *refEngine) fire() {
	h := r.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && h[l].before(h[min]) {
			min = l
		}
		if c := 2*i + 2; c < n && h[c].before(h[min]) {
			min = c
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	r.heap = h
	r.now = top.at
	top.fn()
}

func (r *refEngine) Run() {
	r.stopped = false
	for !r.stopped && len(r.heap) > 0 {
		r.fire()
	}
}

func (r *refEngine) RunUntil(deadline Time) {
	r.stopped = false
	for !r.stopped && len(r.heap) > 0 && r.heap[0].at <= deadline {
		r.fire()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// clock is what a script drives: Engine and refEngine both satisfy it.
type clock interface {
	Now() Time
	Pending() int
	Schedule(at Time, fn func())
	After(d Time, fn func())
	Run()
	RunUntil(deadline Time)
	Stop()
}

// firing is one observed event dispatch: the clock at dispatch plus the
// identity of the scheduled callback (ids count in schedule order;
// negative ids are markers the driver logs between Run calls).
type firing struct {
	at Time
	id int
}

// harness hands a script one clock and records what it fires.
type harness struct {
	c   clock
	log []firing
	ids int
}

// after schedules an event d from now that logs itself, then runs then
// (nil for a leaf).
func (h *harness) after(d Time, then func()) {
	id := h.ids
	h.ids++
	h.c.After(d, func() {
		h.log = append(h.log, firing{h.c.Now(), id})
		if then != nil {
			then()
		}
	})
}

func (h *harness) mark(id int) { h.log = append(h.log, firing{h.c.Now(), id}) }

// runBoth plays one script against the engine and the reference and
// requires the full firing log — instant AND callback identity — to be
// identical, and both to end drained at the same instant.
func runBoth(t *testing.T, name string, script func(h *harness)) {
	t.Helper()
	eng, ref := &harness{c: NewEngine()}, &harness{c: &refEngine{}}
	script(eng)
	script(ref)
	if len(eng.log) != len(ref.log) {
		t.Fatalf("%s: engine fired %d events, reference %d", name, len(eng.log), len(ref.log))
	}
	for i := range eng.log {
		if eng.log[i] != ref.log[i] {
			t.Fatalf("%s: firing %d differs: engine %+v reference %+v", name, i, eng.log[i], ref.log[i])
		}
	}
	if eng.c.Now() != ref.c.Now() || eng.c.Pending() != ref.c.Pending() {
		t.Fatalf("%s: engine ends at %v with %d pending, reference at %v with %d",
			name, eng.c.Now(), eng.c.Pending(), ref.c.Now(), ref.c.Pending())
	}
}

// scriptOp is one step of a schedule-order torture script.
type scriptOp struct {
	delay Time // relative to the clock when the op executes
	nest  int  // how many chained events this callback schedules
}

// randomScript mixes same-instant, sub-microsecond, device-scale and
// far-future delays, a quarter of them scheduling children from inside
// their callback.
func randomScript(rng *rand.Rand, n int) []scriptOp {
	spans := []Time{
		0, // same instant → ring
		100,
		50 * Microsecond,
		5 * Millisecond,
		2 * Second,
		30 * Second,
	}
	ops := make([]scriptOp, n)
	for i := range ops {
		span := spans[rng.Intn(len(spans))]
		d := span
		if span > 0 {
			d = Time(rng.Int63n(int64(span))) + 1
		}
		nest := 0
		if rng.Intn(4) == 0 {
			nest = rng.Intn(3) + 1
		}
		ops[i] = scriptOp{delay: d, nest: nest}
	}
	return ops
}

func (h *harness) play(op scriptOp) {
	h.after(op.delay, func() {
		for i := 0; i < op.nest; i++ {
			h.play(scriptOp{delay: op.delay/2 + Time(i)})
		}
	})
}

// TestSchedulerTortureQueueVsHeap replays randomized schedule-order
// scripts against the engine and the heap reference.
func TestSchedulerTortureQueueVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := randomScript(rand.New(rand.NewSource(seed)), 400)
		runBoth(t, fmt.Sprintf("seed %d", seed), func(h *harness) {
			for _, op := range ops {
				h.play(op)
			}
			h.c.Run()
		})
	}
}

// TestSchedulerRunUntilBursts interleaves RunUntil deadlines with
// bursts: each round queues far events, runs to a deadline short of
// them, then schedules events earlier than everything queued — the
// insertions that go all the way to the head of the live queue.
func TestSchedulerRunUntilBursts(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		runBoth(t, fmt.Sprintf("seed %d", seed), func(h *harness) {
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 30; round++ {
				for i := rng.Intn(20); i >= 0; i-- {
					h.play(scriptOp{delay: 10*Millisecond + Time(rng.Int63n(int64(10*Millisecond))), nest: rng.Intn(2)})
				}
				h.c.RunUntil(h.c.Now() + Time(rng.Int63n(int64(2*Millisecond))))
				h.mark(-1 - round)
				for i := rng.Intn(8); i >= 0; i-- {
					h.after(Time(rng.Int63n(int64(5*Millisecond))), nil)
				}
			}
			h.c.RunUntil(h.c.Now()) // a deadline at the clock fires what is due now
			h.mark(-100)
			h.c.Run()
		})
	}
}

// TestSchedulerStopFromCallback stops the run from inside callbacks and
// resumes it: the event that called Stop is the last of its Run, and
// nothing is lost or reordered across the gap.
func TestSchedulerStopFromCallback(t *testing.T) {
	runBoth(t, "stop", func(h *harness) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			d := Time(rng.Int63n(int64(Millisecond)))
			if rng.Intn(10) == 0 {
				// The stop also leaves same-instant children behind it.
				h.after(d, func() { h.after(0, nil); h.c.Stop(); h.after(0, nil) })
			} else {
				h.after(d, nil)
			}
		}
		for run := 0; h.c.Pending() > 0; run++ {
			h.c.Run()
			h.mark(-1 - run)
		}
	})
}

// TestSchedulerZeroDelayAmongQueued pins the queue-before-ring rule: a
// timed event that shares its instant with queued events schedules
// zero-delay children, which must fire after every event already
// queued for that instant and before the clock moves on.
func TestSchedulerZeroDelayAmongQueued(t *testing.T) {
	runBoth(t, "zero-delay", func(h *harness) {
		rng := rand.New(rand.NewSource(5))
		for inst := 1; inst <= 200; inst++ {
			d := Time(inst) * 10 * Microsecond
			for i := rng.Intn(6); i >= 0; i-- {
				h.after(d, func() {
					h.after(0, func() { h.after(0, nil); h.after(10*Microsecond, nil) })
					h.after(0, nil)
				})
			}
		}
		h.c.Run()
	})
}

// TestSchedulerEqualAndDescending covers the two extremes of stable
// insertion: long runs of one instant (every insertion stops at the
// back, order is schedule order) and strictly descending instants
// (every insertion shifts the whole queue).
func TestSchedulerEqualAndDescending(t *testing.T) {
	runBoth(t, "equal", func(h *harness) {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			h.after(3*Millisecond, nil)
			if rng.Intn(3) == 0 { // noise at other instants must not perturb the run
				h.after(Time(rng.Int63n(int64(10*Millisecond)))+1, nil)
			}
		}
		h.c.Run()
	})
	runBoth(t, "descending", func(h *harness) {
		const n = 3000
		for i := 0; i < n; i++ {
			h.after(Time(n-i), nil)
		}
		h.c.Run()
	})
}

// TestSchedulerWidePending holds 100,000 events pending at once —
// three orders of magnitude past what the simulator queues — mostly
// arriving in near-ascending order with equal-instant runs, plus
// random insertions deep into the queue and children scheduled while
// it drains.
func TestSchedulerWidePending(t *testing.T) {
	runBoth(t, "wide", func(h *harness) {
		rng := rand.New(rand.NewSource(9))
		const n = 100_000
		for i := 0; i < n; i++ {
			d := Time(i/4)*Microsecond + Time(rng.Int63n(int64(2*Microsecond)))
			var then func()
			if i%1000 == 0 {
				then = func() { h.after(Time(rng.Int63n(int64(n/4*Microsecond))), nil) }
			}
			h.after(d+1, then)
		}
		for i := 0; i < 200; i++ {
			h.after(Time(rng.Int63n(int64(n/4*Microsecond)))+1, nil)
		}
		if h.c.Pending() != n+200 {
			t.Fatalf("pending = %d, want %d", h.c.Pending(), n+200)
		}
		h.c.Run()
	})
}

// TestSchedulerFarApartEvents: two events beyond any device latency and
// 2^24-1 microsecond-ticks apart. Nothing about them is special to a
// sorted slice, which is the point — this pair sent the three-level
// timing wheel this queue replaced into an endless promote/re-defer
// loop between its overflow heap and its outermost level.
func TestSchedulerFarApartEvents(t *testing.T) {
	runBoth(t, "far apart", func(h *harness) {
		h.after(30*Second, nil)
		h.after(30*Second+(1<<24-1)<<10, nil)
		h.after(200*Hour, func() { h.after(90*Hour, nil) })
		h.c.Run()
	})
}

// TestSchedulerSteadyPopulation runs a self-sustaining population long
// enough for the queue's live window to slide off the end of its array
// many times, against the reference, and then checks the copy-down kept
// the array proportional to the population rather than to the run.
func TestSchedulerSteadyPopulation(t *testing.T) {
	const width, events = 50, 50_000
	script := func(h *harness) {
		rng := rand.New(rand.NewSource(11))
		left := events
		var again func()
		again = func() {
			if left--; left > 0 {
				h.after(Time(rng.Int63n(int64(8*Millisecond)))+1, again)
			}
		}
		for i := 0; i < width; i++ {
			h.after(Time(rng.Int63n(int64(8*Millisecond)))+1, again)
		}
		h.c.Run()
	}
	runBoth(t, "steady", script)

	h := &harness{c: NewEngine()}
	script(h)
	eng := h.c.(*Engine)
	if st := eng.SchedStats(); st.MaxPending != width || cap(eng.queue) > 4*width {
		t.Fatalf("max pending %d (want %d), queue array grew to %d slots", st.MaxPending, width, cap(eng.queue))
	}
}

// TestSchedulerFIFOSameInstant pins the FIFO contract directly, with no
// reference in the loop: events scheduled for one future instant,
// interleaved with events at other instants, fire in exactly submission
// order.
func TestSchedulerFIFOSameInstant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := NewEngine()
	const target = 3 * Millisecond
	var got []int
	for i := 0; i < 500; i++ {
		id := i
		eng.Schedule(target, func() { got = append(got, id) })
		if rng.Intn(3) == 0 {
			eng.Schedule(Time(rng.Int63n(int64(10*Millisecond)))+1, func() {})
		}
	}
	eng.Run()
	if len(got) != 500 {
		t.Fatalf("fired %d of 500 same-instant events", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("same-instant event %d fired out of order (got id %d)", i, id)
		}
	}
}

// TestSchedulerRunUntilLateInsert: RunUntil stops short of a queued
// event; events scheduled afterwards for earlier instants must still
// fire first.
func TestSchedulerRunUntilLateInsert(t *testing.T) {
	eng := NewEngine()
	var log []firing
	eng.Schedule(5*Millisecond, func() { log = append(log, firing{eng.Now(), 1}) })
	eng.RunUntil(1 * Millisecond)
	if len(log) != 0 {
		t.Fatal("RunUntil fired past its deadline")
	}
	eng.Schedule(2*Millisecond, func() { log = append(log, firing{eng.Now(), 2}) })
	eng.Schedule(5*Millisecond-1, func() { log = append(log, firing{eng.Now(), 3}) })
	eng.Run()
	want := []firing{{2 * Millisecond, 2}, {5*Millisecond - 1, 3}, {5 * Millisecond, 1}}
	if len(log) != len(want) {
		t.Fatalf("fired %d events, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, log[i], want[i])
		}
	}
}

// TestEngineScheduleAllocFree gates the steady-state event path at zero
// allocations per event: after warmup the queue and the ring reuse
// their backing arrays.
func TestEngineScheduleAllocFree(t *testing.T) {
	eng := NewEngine()
	var fn func(Time)
	n := 0
	fn = func(at Time) {
		if n++; n < 5000 {
			eng.AfterTimed(Time(n%4096)+1, fn)
			if n%7 == 0 {
				eng.AfterTimed(0, func(Time) {})
			}
		}
	}
	run := func() {
		n = 0
		for i := 0; i < 16; i++ {
			eng.AfterTimed(Time(i)+1, fn)
		}
		eng.Run()
	}
	run() // warm up: grow the queue and the ring
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("%.1f allocs per 5000-event run, want 0", allocs)
	}
}

// TestGlobalSchedStats checks the one process-wide counter — Fired
// advances by exactly what each engine's run fires (go test runs one
// package's tests in one goroutine unless they ask otherwise, and these
// do not) — and that an engine keeps all three counters for itself.
func TestGlobalSchedStats(t *testing.T) {
	before := GlobalSchedStats()
	eng := NewEngine()
	for i := 1; i <= 100; i++ {
		eng.Schedule(Time(i)*Microsecond, func() { eng.After(0, func() {}) })
	}
	eng.Run()
	if d := GlobalSchedStats().Fired - before.Fired; d != 200 {
		t.Fatalf("global Fired advanced by %d, want 200", d)
	}
	if st := eng.SchedStats(); st != (SchedStats{Fired: 200, Ring: 100, MaxPending: 100}) {
		t.Fatalf("engine stats = %+v, want 200 fired, 100 ring, 100 max pending", st)
	}
	small := NewEngine()
	small.Schedule(1, func() {})
	small.Run()
	small.Run() // nothing new to flush
	if d := GlobalSchedStats().Fired - before.Fired; d != 201 {
		t.Fatalf("global Fired advanced by %d over both engines, want 201", d)
	}
}
