// Package core implements the CRAID architecture (paper §3–§4) and the
// baseline RAID controllers it is evaluated against.
//
// The pieces map one-to-one onto the paper's design:
//
//   - Array: the physical device set plus instrumentation (per-disk
//     load for workload-distribution analysis, queue/concurrency
//     sampling), and the pool of joins — the one continuation every set
//     of in-flight I/Os completes into.
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
	"craid/internal/trace"
)

// Array is a set of devices driven by one simulation engine, with
// array-level instrumentation shared by all controllers.
type Array struct {
	Eng     *sim.Engine
	devices []disk.Device

	// Optional instrumentation; nil disables.
	Load *metrics.LoadTracker // per-disk per-second load (cv analysis)

	queueDepths sampler // the device's queue depth, per submit
	busyCounts  sampler // concurrently busy devices, per submit

	// queued[i] is device i's queue-state view, nil for models without
	// one (instant devices). The busy-device census behind busyCounts is
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

	// joinFree is the freelist of the one per-I/O control structure, the
	// join. The array (like its engine) is single-threaded, so no
	// locking; fired joins recycle here instead of garbage-collecting at
	// millions per simulated second. joinsMade counts the joins ever
	// allocated: once the engine drains, every one of them is back on
	// the list, or a completion was lost.
	joinFree  *join
	joinsMade int

	// faults is the installed fault runtime, nil on healthy runs: every
	// hot-path check reduces to one nil test, keeping the healthy
	// submit path's cost (and allocation count) unchanged.
	faults *FaultRuntime

	// epoch counts controller incarnations: CRAID.CrashRestart bumps it,
	// and background chains and rebuild jobs stamped with an older one
	// complete as timing only — their state updates belong to the
	// incarnation the crash tore down.
	epoch uint64
}

// queuer is implemented by device models that expose queue state.
type queuer interface {
	QueueDepth() int
	Busy() bool
}

// sampler is a histogram of small counts (sample unit: the count,
// abusing ns=count), taken twice per submitted I/O: values below
// len(small) — nearly all of them — are tallied in place and reach the
// histogram when it is read. The histogram cannot tell: its bucket counts
// are order-free, and its float64 sum is exact in any order, every sample
// being an integer and the total staying below 2^53.
type sampler struct {
	small [64]int64
	hist  metrics.LatencyHist
}

func (s *sampler) add(v int) {
	if uint(v) < uint(len(s.small)) {
		s.small[v]++
		return
	}
	s.hist.Add(sim.Time(v))
}

// stats folds the tallies in and returns mean, 99th percentile and max.
func (s *sampler) stats() (mean float64, p99, max int64) {
	// Largest first, so the histogram sizes its buckets once.
	for v := len(s.small) - 1; v >= 0; v-- {
		s.hist.AddN(sim.Time(v), s.small[v])
		s.small[v] = 0
	}
	return float64(s.hist.Mean()), int64(s.hist.Percentile(0.99)), int64(s.hist.Max())
}

// NewArray returns an array over devices.
func NewArray(eng *sim.Engine, devices []disk.Device) *Array {
	a := &Array{Eng: eng, devices: devices}
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
func (a *Array) QueueStats() (mean float64, p99, max int64) { return a.queueDepths.stats() }

// ConcurrencyStats returns mean, 99th-percentile and max concurrently
// busy devices sampled at submit time (Table 5's "Cdev" columns).
func (a *Array) ConcurrencyStats() (mean float64, p99, max int64) { return a.busyCounts.stats() }

// submit issues a request on device dev, recording instrumentation.
func (a *Array) submit(dev int, op disk.Op, block, count int64, done func(sim.Time)) {
	if f := a.faults; f != nil {
		f.attempt(dev, op, block, count, done)
		return
	}
	a.issue(dev, op, block, count, done, false, false, 0)
}

// issue performs one submission attempt with its fate (reject, errs,
// latX): the one place a request reaches a device.
func (a *Array) issue(dev int, op disk.Op, block, count int64, done func(sim.Time), reject, errs bool, latX float64) {
	if dev < 0 || dev >= len(a.devices) {
		panic(fmt.Sprintf("core: device index %d out of range (%d devices)", dev, len(a.devices)))
	}
	if a.Load != nil {
		a.Load.Add(a.Eng.Now(), dev, count*disk.BlockSize)
	}
	if q := a.queued[dev]; q != nil {
		a.queueDepths.add(q.QueueDepth())
		a.busyCounts.add(a.busyDevices())
	}
	// Field by field: a composite literal is built in a temporary and
	// copied over.
	r := &a.scratch
	r.Op, r.Block, r.Count, r.Done = op, block, count, done
	r.Reject, r.Err, r.LatencyX = reject, errs, latX
	a.devices[dev].Submit(r)
}

// deviceDown reports whether the array routes around dev: it is dead, or
// a spare. One nil test on healthy runs; a device AddDevices attached
// without the fault runtime knowing is never down.
func (a *Array) deviceDown(dev int) bool {
	f := a.faults
	return f != nil && dev < len(f.devs) && f.devs[dev].state != devUp
}

// lost returns how many extents the array has lost beyond redundancy so
// far: a Submit reads it before walking a request and hands it to
// lostError after.
func (a *Array) lost() int64 {
	if a.faults == nil {
		return 0
	}
	return a.faults.stats.LostExtents
}

// lostError reports rec as a LostError if extents were lost since
// lost() returned lost0, and nil otherwise.
func (a *Array) lostError(rec trace.Record, lost0 int64) error {
	if n := a.lost() - lost0; n > 0 {
		return &LostError{Op: rec.Op, Block: rec.Block, Count: rec.Count, Extents: n}
	}
	return nil
}

// join is the one pooled continuation: it collects the completions of a
// dynamic set of I/O branches and, once all of them have finished, takes
// its step with the latest completion time. Branches may be added until
// seal is called. Whoever takes a join from the pool sets the step and
// the arguments it reads; the zero step just tells fn.
type join struct {
	pending int
	sealed  bool
	last    sim.Time

	then // what firing does
	legs // where stepCommit writes

	// completeFn caches the j.complete method value so each branch()
	// hands out the same func instead of allocating a new one. It is
	// bound to the join's identity, so it survives pool recycling.
	completeFn func(sim.Time)

	arr  *Array // owning pool
	next *join  // freelist link
}

// step selects what a join does when it fires.
type step uint8

const (
	stepTell      step = iota // tell fn
	stepRecord                // record the request's response time, then tell fn
	stepCopyIn                // tell fn (the client), then copy the run read from P_A into P_C
	stepWriteBack             // update P_A with the run read from P_C, telling fn when that lands
	stepMigrate               // likewise, but re-place the run on P_C's new geometry (a retaining Expand)
	stepDecode                // degraded pre-reads in: wait again, for the reconstruction delay
	stepCommit                // pre-reads in or delay over: wait again, for the writes to the (surviving) legs
	stepRetry                 // a doomed device attempt is in: give up, telling fn, or wait again, for the backoff
	stepReattempt             // backoff over: make the next attempt, and wait again, for it
)

// then is a join's continuation: the step and the arguments steps read.
// It is copied out before a firing join recycles, so a step may reclaim
// the object it came from.
type then struct {
	step  step
	tries uint8          // the retry steps: attempts made so far
	fn    func(sim.Time) // whom to tell afterwards; nil for detached work

	lat   *latencies // stepRecord: where, and the request's
	op    disk.Op    // direction (the retry steps': the attempt's),
	deg   bool       // whether it was submitted in a degraded window,
	start sim.Time   // and when

	c       *CRAID // stepCopyIn, stepWriteBack, stepMigrate: the controller,
	orig, n int64  // the run to write (n is also every leg's block count, and the attempt's)
	epoch   uint64 // and the incarnation that issued the chain

	delay sim.Time // stepDecode: the reconstruction compute
}

// legs is the write set of one extent, resolved to array devices and
// device blocks: the data run first, then its P and Q parity runs as far
// as the layout has them (and, on a degraded write, as far as they
// survive). The retry steps keep their attempt's device and block in the
// first leg.
type legs struct {
	dev  [3]int
	blk  [3]int64
	nleg int
}

// newJoin returns a join from the pool that will tell fn when it fires;
// fn may be nil (detached background work). Once fired for good, it
// recycles itself onto the array's freelist.
func (a *Array) newJoin(fn func(sim.Time)) *join {
	j := a.joinFree
	if j == nil {
		a.joinsMade++
		return &join{then: then{fn: fn}, arr: a}
	}
	a.joinFree = j.next
	j.next, j.nleg = nil, 0
	j.then = then{fn: fn}
	j.rearm(stepTell)
	return j
}

// rearm makes a fired (or recycled) join wait again, for next.
func (j *join) rearm(next step) {
	j.pending, j.sealed, j.last = 0, false, 0
	j.step = next
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

// maybeFire takes the join's step once it is sealed and every branch has
// completed — once: from then on nothing holds a branch to complete, and
// seal ignores a sealed join.
func (j *join) maybeFire() {
	if !j.sealed || j.pending != 0 {
		return
	}
	a, at := j.arr, j.last
	switch j.step {
	case stepDecode:
		// Always a hop through the engine, even at delay 0: a degraded
		// request goes on from an event of its own, never from inside the
		// last pre-read's completion.
		j.rearm(stepCommit)
		a.Eng.AfterTimed(j.delay, j.branch())
		j.seal(a.Eng.Now())
		return
	case stepCommit:
		j.commit()
		return
	case stepRetry:
		if a.faults.retry(j) {
			return
		}
	case stepReattempt:
		a.faults.reattempt(j)
		return
	}
	// Every other step, and a retry that gives up, ends the join's life. A
	// fired join can have no outstanding references: every branch callback
	// has run and seal was called. Recycle before taking the step — it may
	// submit the next request and reclaim the object — and never touch j
	// afterwards.
	t := j.then
	j.fn = nil
	j.next = a.joinFree
	a.joinFree = j
	switch t.step {
	case stepRecord:
		t.lat.add(t.op, t.deg, at-t.start)
	case stepCopyIn:
		// The client branch always fires (timing), but a stale epoch
		// skips the copy-in: the mapping state it would mutate belongs to
		// an incarnation a crash-restart already discarded.
		t.fn(at)
		if t.epoch == a.epoch {
			t.c.copyIn(t.orig, t.n)
		}
		return
	case stepWriteBack, stepMigrate:
		// A stale epoch means a crash-restart tore the owning incarnation
		// down mid-chain: the update is dropped (the dirty mapping was
		// re-logged or lost with the crash, exactly as a real controller's
		// in-flight write-back dies with it). fn — an upgrade branch
		// tracking drain (Expand) — is told either way: on the write's
		// completion when the chain is live, right now when it is stale.
		if t.epoch == a.epoch {
			dst := t.c.pa
			if t.step == stepMigrate {
				dst = t.c.pc // as rebuilt by now, not as it was at issue
			}
			detached := a.newJoin(t.fn)
			dst.write(detached, t.orig, t.n)
			detached.seal(a.Eng.Now())
			return
		}
	}
	if t.fn != nil {
		t.fn(at)
	}
}

// preRead attaches a read of each of j's legs: the old data and parity a
// read-modify-write cycle starts from.
func (j *join) preRead() {
	for i := 0; i < j.nleg; i++ {
		j.arr.submit(j.dev[i], disk.OpRead, j.blk[i], j.n, j.branch())
	}
}

// commit re-arms a join whose pre-reads are in to wait for the final
// writes to its legs, after which it tells fn.
func (j *join) commit() {
	a := j.arr
	j.rearm(stepTell)
	for i := 0; i < j.nleg; i++ {
		a.submit(j.dev[i], disk.OpWrite, j.blk[i], j.n, j.branch())
	}
	j.seal(a.Eng.Now())
}

// span is a raid.Layout bound to concrete array devices and a
// partition base offset: the unit controllers issue logical I/O
// against, and the redirector's last step — every extent of a walk
// becomes a device read, or the write of all the legs the extent names.
type span struct {
	arr    *Array
	layout raid.Layout
	disks  []int // layout disk index → array device index
	base   int64 // partition start block on each device

	// exts holds the walk in progress: the layout appends a run's
	// extents here and read/write issue them. It starts on inline, so a
	// walk of up to len(inline) extents allocates nothing even the first
	// time, and a longer one grows it onto the heap once, for good.
	// Sharing it between walks is safe because device completions are
	// always delivered through the engine's event queue — a span walk can
	// never re-enter the same span.
	exts   []raid.Extent
	inline [16]raid.Extent

	// red is the layout's reconstruction geometry, nil when the layout
	// survives no device loss (including a SpreadLayout over RAID-0,
	// which asserts as Redundant but reports zero parity units).
	red raid.Redundant

	// Pending degraded-read run: consecutive extents of one read walk
	// that land device-contiguously on the same dead disk coalesce into
	// a single reconstruction (one peer read per survivor, one
	// aggregated decode charge for the whole run) instead of one
	// fan-out per stripe-row unit. degN == 0 means no run is pending;
	// flushDegradedRead drains it.
	degDisk int   // layout disk index of the run's dead disk
	degBlk  int64 // device block where the run starts
	degN    int64 // blocks accumulated
}

func newSpan(arr *Array, layout raid.Layout, disks []int, base int64) *span {
	if len(disks) != layout.Disks() {
		panic(fmt.Sprintf("core: span over %d devices, layout wants %d", len(disks), layout.Disks()))
	}
	s := &span{arr: arr, layout: layout, disks: disks, base: base}
	s.exts = s.inline[:0]
	if red, ok := layout.(raid.Redundant); ok && red.ParityUnits() > 0 {
		s.red = red
	}
	return s
}

// read issues reads covering [block, block+count) and attaches them to j.
func (s *span) read(j *join, block, count int64) {
	s.exts = s.layout.AppendExtents(s.exts[:0], block, count)
	for i := range s.exts {
		s.readExtent(j, &s.exts[i])
	}
	if s.degN > 0 {
		s.flushDegradedRead(j)
	}
}

// readExtent issues one extent's read against j. Extents on a dead disk
// are not reconstructed one by one: device-contiguous runs on the same
// dead disk accumulate (a large request walking consecutive stripe rows
// hits the dead disk's units back to back whenever the dead disk carries
// data in those rows — the uniform-row invariant makes the unit ranges
// adjacent) and flush as one reconstruction at the first break or at
// the end of the walk.
func (s *span) readExtent(j *join, e *raid.Extent) {
	dev := s.disks[e.Data.Disk]
	if s.arr.deviceDown(dev) {
		if s.degN > 0 {
			if s.degDisk == e.Data.Disk && s.degBlk+s.degN == e.Data.Block {
				s.degN += e.Count
				return
			}
			s.flushDegradedRead(j)
		}
		s.degDisk, s.degBlk, s.degN = e.Data.Disk, e.Data.Block, e.Count
		return
	}
	s.arr.submit(dev, disk.OpRead, s.base+e.Data.Block, e.Count, j.branch())
}

// write issues a small-write against the span. Layouts with parity pay
// the full read-modify-write cycle per extent: read old data and old
// parity, then write new data and new parity — the paper's 4 I/Os;
// dual-parity (RAID-6) layouts extend both phases to the Q parity (6
// I/Os, the §6 cost the paper predicts). Layouts without parity write
// directly. j sees only the final writes.
func (s *span) write(j *join, block, count int64) {
	s.exts = s.layout.AppendExtents(s.exts[:0], block, count)
	for i := range s.exts {
		s.writeExtent(j, &s.exts[i])
	}
}

// legsOf resolves e's write set — data, P, Q, as far as the layout has
// them — to array devices and device blocks, keeping the legs whose
// device is up: n counts them all, and deadData says the data leg is not
// among the kept.
func (s *span) legsOf(e *raid.Extent) (up legs, n int, deadData bool) {
	for i, p := range [3]raid.PBA{e.Data, e.Parity, e.Q} {
		if p.Disk < 0 {
			break
		}
		n++
		if dev := s.disks[p.Disk]; !s.arr.deviceDown(dev) {
			up.dev[up.nleg], up.blk[up.nleg] = dev, s.base+p.Block
			up.nleg++
		} else if i == 0 {
			deadData = true
		}
	}
	return up, n, deadData
}

// writeExtent issues one extent's write (or read-modify-write cycle)
// against j. Only with a fault runtime installed can a leg be down, so
// only then does it ask legsOf which; with every leg up it writes the
// data, P and Q legs straight into the cycle's join.
func (s *span) writeExtent(j *join, e *raid.Extent) {
	if s.arr.faults != nil {
		if up, n, deadData := s.legsOf(e); up.nleg < n {
			s.degradedWrite(j, e, up, n, deadData)
			return
		}
	}
	dev, blk := s.disks[e.Data.Disk], s.base+e.Data.Block
	if e.Parity.Disk < 0 {
		s.arr.submit(dev, disk.OpWrite, blk, e.Count, j.branch())
		return
	}
	rmw := s.arr.newJoin(j.branch()) // told when all final writes complete
	rmw.step, rmw.n = stepCommit, e.Count
	rmw.dev[0], rmw.blk[0] = dev, blk
	rmw.dev[1], rmw.blk[1] = s.disks[e.Parity.Disk], s.base+e.Parity.Block
	rmw.nleg = 2
	if e.Q.Disk >= 0 {
		rmw.dev[2], rmw.blk[2] = s.disks[e.Q.Disk], s.base+e.Q.Block
		rmw.nleg = 3
	}
	rmw.preRead()
	rmw.seal(s.arr.Eng.Now())
}

// flushDegradedRead serves the span's pending degraded-read run — one
// or more device-contiguous extents whose data disk is down (batched by
// readExtent): read the surviving units of the covered stripe rows in
// one submission per peer — every group disk holds its units of those
// rows at the same device block ranges, the uniform-row invariant of
// the rotation tables — then pay one aggregated XOR/GF(256)
// reconstruction charge for the whole run before completing the client
// branch. The peers are the dead disk's group peers (DiskPeers), the
// same for every row, and the erasure count is resolved once: device
// states cannot change mid-walk (fault events are engine events, never
// re-entrant into a walk). With more failures than parity units the run
// is lost: it completes immediately, is counted, and the submission that
// walked it reports a LostError.
func (s *span) flushDegradedRead(j *join) {
	f := s.arr.faults
	count, blk := s.degN, s.base+s.degBlk
	s.degN = 0
	br := j.branch()
	var peers []int
	if s.red != nil {
		peers = s.red.DiskPeers(s.degDisk, f.peerBuf[:0])
		f.peerBuf = peers[:0]
	}
	missing := s.erasures(peers)
	if s.red == nil || missing > s.red.ParityUnits() {
		f.stats.LostExtents++
		s.arr.Eng.AfterTimed(0, br)
		return
	}
	f.stats.DegradedReads++
	f.stats.DegradedBlocks += count
	// Reconstruction compute: proportional to the blocks combined and
	// to how many erasures the decode solves, charged once per run. A
	// read has no legs to commit afterwards, so the delay over tells br.
	sub := s.arr.newJoin(br)
	sub.step, sub.delay = stepDecode, sim.Time(count)*sim.Time(missing)*reconPerBlock
	s.readPeers(sub, peers, -1, -1, blk, count)
	sub.seal(s.arr.Eng.Now())
}

// erasures counts the units a decode over peers solves for: the lost one
// plus every peer that is down too.
func (s *span) erasures(peers []int) int {
	n := 1
	for _, p := range peers {
		if s.arr.deviceDown(s.disks[p]) {
			n++
		}
	}
	return n
}

// readPeers attaches to j one read of device blocks [blk, blk+count) on
// every surviving peer (layout disk indices, from DiskPeers) other than
// skipP and skipQ; -1 skips nothing.
func (s *span) readPeers(j *join, peers []int, skipP, skipQ int, blk, count int64) {
	for _, p := range peers {
		dev := s.disks[p]
		if p == skipP || p == skipQ || s.arr.deviceDown(dev) {
			continue
		}
		s.arr.faults.stats.PeerReads++
		s.arr.submit(dev, disk.OpRead, blk, count, j.branch())
	}
}

// degradedWrite commits a write extent of n legs of which only those in
// up survive. A dead parity leg is simply skipped — its content is
// reconstructible later. A dead data leg turns the update into a
// reconstruct-write: read the surviving non-parity units of the row,
// recompute parity with the new data standing in for the dead unit, and
// write the surviving parity legs — the new data lives on encoded in
// them. More dead legs than parity units means the write cannot be made
// durable: it completes (the simulator models timing), is counted lost,
// and the submission reports a LostError.
func (s *span) degradedWrite(j *join, e *raid.Extent, up legs, n int, deadData bool) {
	f := s.arr.faults
	br := j.branch()
	if dead, par := n-up.nleg, n-1; dead > par || (deadData && s.red == nil) {
		f.stats.LostExtents++
		s.arr.Eng.AfterTimed(0, br)
		return
	}
	f.stats.DegradedWrites++

	// Pre-reads, then the reconstruction compute, then the surviving
	// writes: one join walks stepDecode → stepCommit → stepTell.
	sub := s.arr.newJoin(br)
	sub.step, sub.legs, sub.n = stepDecode, up, e.Count
	if deadData {
		sub.delay = sim.Time(e.Count) * reconPerBlock
		// Reconstruct-write pre-reads: the surviving *data* units of
		// the row (parity legs are overwritten, their old content is
		// not needed).
		peers := s.red.DiskPeers(e.Data.Disk, f.peerBuf[:0])
		f.peerBuf = peers[:0]
		s.readPeers(sub, peers, e.Parity.Disk, e.Q.Disk, s.base+e.Data.Block, e.Count)
	} else {
		sub.preRead() // ordinary RMW pre-reads, restricted to the surviving legs
	}
	sub.seal(s.arr.Eng.Now())
}
