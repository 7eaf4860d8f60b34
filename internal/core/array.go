// Package core implements the CRAID architecture (paper §3–§4) and the
// baseline RAID controllers it is evaluated against.
//
// The pieces map one-to-one onto the paper's design:
//
//   - Array: the physical device set plus instrumentation (per-disk
//     load for workload-distribution analysis, sequentiality tracking,
//     queue/concurrency sampling).
//   - RAIDController: a plain volume over one raid.Layout (RAID-5 or
//     RAID-5+), doing read-modify-write parity updates on writes. These
//     are the paper's RAID-5 / RAID-5+ baselines in their ideal state.
//   - CRAID: the contribution — an I/O monitor identifying the working
//     set, a mapping cache (internal/mapcache), an I/O redirector, a
//     cache partition P_C striped RAID-5 across all disks (or dedicated
//     SSDs for the CRAID-5ssd variants), and an archive partition P_A
//     behind it. Online expansion invalidates P_C (writing dirty blocks
//     back) and regrows it over the enlarged disk set, leaving P_A
//     untouched.
package core

import (
	"fmt"

	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
)

// Array is a set of devices driven by one simulation engine, with
// array-level instrumentation shared by all controllers.
type Array struct {
	Eng     *sim.Engine
	devices []disk.Device

	// Optional instrumentation; nil disables.
	Load *metrics.LoadTracker // per-disk per-second load (cv analysis)
	Seq  *metrics.SeqTracker  // physical sequentiality (Fig. 5)

	queueHist *metrics.LatencyHist // sample unit: queue depth, abusing ns=depth
	concHist  *metrics.LatencyHist // concurrent busy devices per submit

	// queued[i] is device i's queue-state view, nil for models without
	// one (instant devices). The busy-device census behind concHist is
	// kept incrementally: devices that can push their idle<->busy flips
	// (disk.BusyCounter) maintain busy; the rest — models whose busy
	// state is a function of the clock — are in polled and asked per
	// sample.
	queued []queuer
	busy   int
	polled []queuer

	// scratch is the one Request every submission reuses: devices never
	// retain it (the disk.Device contract).
	scratch disk.Request

	// freelists for the per-I/O control structures. The array (like
	// its engine) is single-threaded, so no locking; fired joins and
	// completed RMW ops recycle here instead of garbage-collecting at
	// millions per simulated second.
	joinFree *join
	rmwFree  *rmw

	// faults is the fault-injection state, nil on healthy runs: every
	// hot-path check reduces to one nil test, keeping the healthy
	// submit path's cost (and allocation count) unchanged.
	faults *faultState
}

// queuer is implemented by device models that expose queue state.
type queuer interface {
	QueueDepth() int
	Busy() bool
}

// NewArray returns an array over devices.
func NewArray(eng *sim.Engine, devices []disk.Device) *Array {
	a := &Array{
		Eng:       eng,
		devices:   devices,
		queueHist: metrics.NewLatencyHist(),
		concHist:  metrics.NewLatencyHist(),
	}
	a.watch(devices)
	return a
}

// watch registers newly attached devices with the queue and
// busy-device instrumentation.
func (a *Array) watch(devs []disk.Device) {
	for _, d := range devs {
		q, _ := d.(queuer)
		a.queued = append(a.queued, q)
		if bc, ok := d.(disk.BusyCounter); ok {
			bc.CountBusyIn(&a.busy)
		} else if q != nil {
			a.polled = append(a.polled, q)
		}
	}
}

// busyDevices returns how many devices are busy right now.
func (a *Array) busyDevices() int {
	n := a.busy
	for _, q := range a.polled {
		if q.Busy() {
			n++
		}
	}
	return n
}

// Devices returns the device count.
func (a *Array) Devices() int { return len(a.devices) }

// Device returns device i.
func (a *Array) Device(i int) disk.Device { return a.devices[i] }

// AddDevices appends newly installed devices (array expansion) and
// widens the load tracker.
func (a *Array) AddDevices(devs []disk.Device) {
	a.devices = append(a.devices, devs...)
	a.watch(devs)
	if a.Load != nil {
		a.Load.Resize(len(a.devices))
	}
}

// QueueStats returns mean, 99th-percentile and max sampled I/O queue
// depth across all submits (Table 5's "Ioq" columns).
func (a *Array) QueueStats() (mean float64, p99, max int64) {
	return float64(a.queueHist.Mean()), int64(a.queueHist.Percentile(0.99)), int64(a.queueHist.Max())
}

// ConcurrencyStats returns mean, 99th-percentile and max concurrently
// busy devices sampled at submit time (Table 5's "Cdev" columns).
func (a *Array) ConcurrencyStats() (mean float64, p99, max int64) {
	return float64(a.concHist.Mean()), int64(a.concHist.Percentile(0.99)), int64(a.concHist.Max())
}

// Submit issues a request on device dev, recording instrumentation.
func (a *Array) Submit(dev int, op disk.Op, block, count int64, done func(sim.Time)) {
	a.submit(dev, op, block, count, true, done)
}

// submit is Submit with control over sequentiality accounting: parity
// read-modify-write legs carry trackSeq=false so the Fig. 5 metric
// reflects the *data* access pattern per disk, as the paper measures,
// rather than being drowned by interleaved parity traffic. Load and
// queue accounting always include everything.
func (a *Array) submit(dev int, op disk.Op, block, count int64, trackSeq bool, done func(sim.Time)) {
	if f := a.faults; f != nil {
		// Wrap the submission in a pooled retry op: transient device
		// errors resubmit with exponential backoff instead of surfacing
		// to the controller.
		r := f.newRetry(a, dev, op, block, count, trackSeq, done)
		a.issue(dev, op, block, count, trackSeq, r.doneFn, r.failFn)
		return
	}
	a.issue(dev, op, block, count, trackSeq, done, nil)
}

// issue performs one submission attempt.
func (a *Array) issue(dev int, op disk.Op, block, count int64, trackSeq bool, done, fail func(sim.Time)) {
	if dev < 0 || dev >= len(a.devices) {
		panic(fmt.Sprintf("core: device index %d out of range (%d devices)", dev, len(a.devices)))
	}
	now := a.Eng.Now()
	if a.Load != nil {
		a.Load.Add(now, dev, count*disk.BlockSize)
	}
	if a.Seq != nil && trackSeq {
		a.Seq.Add(now, dev, block, count)
	}
	if q := a.queued[dev]; q != nil {
		a.queueHist.Add(sim.Time(q.QueueDepth()))
		a.concHist.Add(sim.Time(a.busyDevices()))
	}
	a.scratch = disk.Request{Op: op, Block: block, Count: count, Done: done, Fail: fail}
	a.devices[dev].Submit(&a.scratch)
}

// deviceDown reports whether the array routes around dev (failed and
// not yet rebuilt). One nil test on healthy runs.
func (a *Array) deviceDown(dev int) bool {
	f := a.faults
	return f != nil && dev < len(f.failed) && f.failed[dev]
}

// join collects the completions of a dynamic set of I/O branches and
// fires its callback once after all branches finish (with the latest
// completion time). Branches may be added until seal is called.
type join struct {
	pending int
	sealed  bool
	fired   bool
	last    sim.Time
	fn      func(sim.Time)

	// completeFn caches the j.complete method value so each branch()
	// hands out the same func instead of allocating a new one. It is
	// bound to the join's identity, so it survives pool recycling.
	completeFn func(sim.Time)

	arr  *Array // owning pool; nil for pool-less joins (tests)
	next *join  // freelist link
}

// newJoin returns an unpooled join calling fn on completion; fn may be
// nil (detached background work). Hot paths use Array.newJoin instead.
func newJoin(fn func(sim.Time)) *join { return &join{fn: fn} }

// newJoin returns a pooled join: once fired, it recycles itself onto
// the array's freelist.
func (a *Array) newJoin(fn func(sim.Time)) *join {
	j := a.joinFree
	if j == nil {
		return &join{fn: fn, arr: a}
	}
	a.joinFree = j.next
	j.pending, j.sealed, j.fired, j.last = 0, false, false, 0
	j.fn, j.next = fn, nil
	return j
}

// branch registers one more outstanding I/O and returns its completion
// callback.
func (j *join) branch() func(sim.Time) {
	if j.sealed {
		panic("core: branch after seal")
	}
	j.pending++
	if j.completeFn == nil {
		j.completeFn = j.complete
	}
	return j.completeFn
}

func (j *join) complete(at sim.Time) {
	if at > j.last {
		j.last = at
	}
	j.pending--
	j.maybeFire()
}

// seal declares that no more branches will be added. A join with zero
// branches fires immediately.
func (j *join) seal(now sim.Time) {
	if j.sealed {
		return
	}
	j.sealed = true
	if j.last < now {
		j.last = now
	}
	j.maybeFire()
}

func (j *join) maybeFire() {
	if j.sealed && j.pending == 0 && !j.fired {
		j.fired = true
		fn, last := j.fn, j.last
		if j.arr != nil {
			// A fired join can have no outstanding references: every
			// branch callback has run and seal was called. Recycle
			// before running fn — fn must not touch j afterwards.
			j.fn = nil
			j.next = j.arr.joinFree
			j.arr.joinFree = j
		}
		if fn != nil {
			fn(last)
		}
	}
}

// span is a raid.Layout bound to concrete array devices and a
// partition base offset: the unit controllers issue logical I/O
// against.
type span struct {
	arr    *Array
	layout raid.Layout
	disks  []int           // layout disk index → array device index
	base   int64           // partition start block on each device
	dual   raid.DualParity // layout's Q-parity view, nil without one

	// curJoin is the join the cached walk callbacks attach I/O to.
	// Passing a fresh closure to ForEachExtent (an interface call) would
	// heap-allocate it per walk; instead rdFn/wrFn are bound once and
	// read the current target here. Safe because device completions are
	// always delivered through the engine's event queue — a span walk
	// can never re-enter the same span.
	curJoin    *join
	rdFn, wrFn func(raid.Extent)

	// red is the layout's reconstruction geometry, nil when the layout
	// survives no device loss (including a SpreadLayout over RAID-0,
	// which asserts as Redundant but reports zero parity units).
	red raid.Redundant

	// Pending degraded-read run: consecutive extents of one read walk
	// that land device-contiguously on the same dead disk coalesce into
	// a single reconstruction (one peer read per survivor, one
	// aggregated decode charge for the whole run) instead of one
	// fan-out per stripe-row unit. degN == 0 means no run is pending;
	// flushDegradedRead (fault.go) drains it.
	degDisk int   // layout disk index of the run's dead disk
	degLog  int64 // logical address of the run's first block (geometry probe)
	degBlk  int64 // device block where the run starts
	degN    int64 // blocks accumulated
}

func newSpan(arr *Array, layout raid.Layout, disks []int, base int64) *span {
	if len(disks) != layout.Disks() {
		panic(fmt.Sprintf("core: span over %d devices, layout wants %d", len(disks), layout.Disks()))
	}
	s := &span{arr: arr, layout: layout, disks: disks, base: base}
	s.dual, _ = layout.(raid.DualParity)
	if red, ok := layout.(raid.Redundant); ok && red.ParityUnits() > 0 {
		s.red = red
	}
	s.rdFn = s.readExtent
	s.wrFn = s.writeExtent
	return s
}

// read issues reads covering [block, block+count) and attaches them to j.
func (s *span) read(j *join, block, count int64) {
	s.curJoin = j
	s.layout.ForEachExtent(block, count, s.rdFn)
	if s.degN > 0 {
		s.flushDegradedRead()
	}
	s.curJoin = nil
}

// readExtent issues one extent's read against curJoin. Extents on a
// dead disk are not reconstructed one by one: device-contiguous runs on
// the same dead disk accumulate (a large request walking consecutive
// stripe rows hits the dead disk's units back to back whenever the dead
// disk carries data in those rows — the uniform-row invariant makes the
// unit ranges adjacent) and flush as one reconstruction at the first
// break or at the end of the walk.
func (s *span) readExtent(e raid.Extent) {
	dev := s.disks[e.Data.Disk]
	if s.arr.deviceDown(dev) {
		if s.degN > 0 {
			if s.degDisk == e.Data.Disk && s.degBlk+s.degN == e.Data.Block {
				s.degN += e.Count
				return
			}
			s.flushDegradedRead()
		}
		s.degDisk, s.degLog, s.degBlk, s.degN = e.Data.Disk, e.Logical, e.Data.Block, e.Count
		return
	}
	s.arr.Submit(dev, disk.OpRead, s.base+e.Data.Block, e.Count, s.curJoin.branch())
}

// rmw is one extent's read-modify-write cycle in flight: the pre-read
// locations double as the write locations. Pooled on the Array so the
// simulator's hottest control structure allocates nothing at steady
// state; phase2Fn caches the method value across recycles.
type rmw struct {
	arr      *Array
	devs     [3]int
	blks     [3]int64
	nloc     int
	count    int64
	writes   func(sim.Time) // fires when all final writes complete
	phase2Fn func(sim.Time)
	next     *rmw // freelist link
}

func (a *Array) newRMW() *rmw {
	r := a.rmwFree
	if r == nil {
		r = &rmw{arr: a}
		r.phase2Fn = r.phase2
		return r
	}
	a.rmwFree = r.next
	r.next = nil
	return r
}

// phase2 runs when the pre-reads finish: issue the final data+parity
// writes, then recycle the op.
func (r *rmw) phase2(sim.Time) {
	inner := r.arr.newJoin(r.writes)
	for i := 0; i < r.nloc; i++ {
		r.arr.submit(r.devs[i], disk.OpWrite, r.blks[i], r.count, i == 0, inner.branch())
	}
	inner.seal(r.arr.Eng.Now())
	r.writes = nil
	r.next = r.arr.rmwFree
	r.arr.rmwFree = r
}

// write issues a small-write against the span. Layouts with parity pay
// the full read-modify-write cycle per extent: read old data and old
// parity, then write new data and new parity — the paper's 4 I/Os;
// dual-parity (RAID-6) layouts extend both phases to the Q parity (6
// I/Os, the §6 cost the paper predicts). Layouts without parity write
// directly. j sees only the final writes.
func (s *span) write(j *join, block, count int64) {
	s.curJoin = j
	s.layout.ForEachExtent(block, count, s.wrFn)
	s.curJoin = nil
}

// writeExtent issues one extent's write (or read-modify-write cycle)
// against curJoin.
func (s *span) writeExtent(e raid.Extent) {
	if s.arr.faults != nil && s.extentDown(e) {
		s.degradedWrite(e)
		return
	}
	if e.Parity.Disk < 0 {
		s.arr.Submit(s.disks[e.Data.Disk], disk.OpWrite, s.base+e.Data.Block, e.Count, s.curJoin.branch())
		return
	}
	r := s.arr.newRMW()
	r.devs[0], r.blks[0] = s.disks[e.Data.Disk], s.base+e.Data.Block
	r.devs[1], r.blks[1] = s.disks[e.Parity.Disk], s.base+e.Parity.Block
	r.nloc = 2
	if s.dual != nil {
		if q, ok := s.dual.QParityOf(e.Logical); ok {
			r.devs[2], r.blks[2] = s.disks[q.Disk], s.base+q.Block
			r.nloc = 3
		}
	}
	r.count = e.Count
	r.writes = s.curJoin.branch() // completes when all final writes do
	phase1 := s.arr.newJoin(r.phase2Fn)
	// The pre-reads (including the old-data read, which retraces
	// the data position) are RMW mechanics, not access pattern.
	for i := 0; i < r.nloc; i++ {
		s.arr.submit(r.devs[i], disk.OpRead, r.blks[i], r.count, false, phase1.branch())
	}
	phase1.seal(s.arr.Eng.Now())
}
