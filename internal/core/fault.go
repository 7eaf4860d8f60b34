package core

import (
	"fmt"
	"io"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/raid"
	"craid/internal/sim"
)

// The fault runtime's timing rules.
const (
	// retryBase is the backoff before the first resubmission of a
	// transiently-failed request; it doubles per attempt.
	retryBase = sim.Millisecond
	// maxAttempts bounds submissions per request (initial + retries).
	maxAttempts = 4
	// reconPerBlock is the compute cost of reconstructing one block
	// from surviving units, per erasure the decode solves (XOR for the
	// first, GF(256) for the second).
	reconPerBlock = 2 * sim.Microsecond
)

// FaultStats aggregates what the fault fabric did to one run. All
// counters are deterministic for a given plan + seed.
type FaultStats struct {
	Failures   int64 // DiskFail events fired
	Transients int64 // device completions carrying an injected error
	Retries    int64 // resubmissions after a transient error
	Permanent  int64 // requests abandoned after the retry budget

	DegradedReads  int64 // read extents served by reconstruction
	DegradedBlocks int64 // blocks so served
	PeerReads      int64 // surviving-unit reads issued for reconstruction
	DegradedWrites int64 // write extents committed with a dead leg
	LostExtents    int64 // extents beyond the layout's redundancy

	RebuildRows     int64    // stripe-row units reconstructed
	RebuildBlocks   int64    // blocks rewritten onto replacement disks
	RebuildLostRows int64    // rows unrecoverable: parity budget exceeded mid-walk
	RebuildRestarts int64    // rebuilds restarted from row zero by a crash
	RebuildStart    sim.Time // first rebuild's start instant
	RebuildEnd      sim.Time // last rebuild's completion instant

	Restarts          int64 // crash-restart events survived
	RecoveredMappings int64 // dirty translations reinstated from the log

	Upgrades          int64    // expand events fired
	ExpandMigrated    int64    // blocks migrated by retain upgrades
	ExpandWriteback   int64    // dirty blocks written back by invalidating upgrades
	ExpandInvalidated int64    // mappings dropped by invalidating upgrades
	ExpandStart       sim.Time // first expand event's instant
	ExpandEnd         sim.Time // last upgrade's background-I/O drain instant
}

// RebuildDuration reports the wall-clock (simulated) span from the
// first rebuild start to the last completion, 0 if none ran.
func (s *FaultStats) RebuildDuration() sim.Time {
	if s.RebuildEnd <= s.RebuildStart {
		return 0
	}
	return s.RebuildEnd - s.RebuildStart
}

// UpgradeLatency reports the span from the first expand event to the
// instant the last upgrade's background I/O — dirty write-backs or
// live-block migrations — fully drained, 0 if no upgrade ran or none
// issued background I/O. This is the interference KPI: how long the
// upgrade competed with client traffic for the device queues.
func (s *FaultStats) UpgradeLatency() sim.Time {
	if s.ExpandEnd <= s.ExpandStart {
		return 0
	}
	return s.ExpandEnd - s.ExpandStart
}

// faultState is the array-side fault machinery. It exists only while a
// plan is installed; every hot-path check on healthy runs is a single
// nil test.
type faultState struct {
	stats   FaultStats
	failed  []bool // device index → routed around
	peerBuf []int  // scratch for Redundant.RowPeers

	// retryFree pools the retry ops; retriesMade counts the ops ever
	// allocated, all of which are back on the list once the engine
	// drains.
	retryFree   *retryOp
	retriesMade int
}

func (f *faultState) ensure(dev int) {
	for len(f.failed) <= dev {
		f.failed = append(f.failed, false)
	}
}

// LostError reports that a submission touched extents beyond the
// layout's surviving redundancy: with more devices down than parity
// units, the data is unrecoverable and the request errors (its timing
// still completes, so histograms stay comparable).
type LostError struct {
	Op      disk.Op
	Block   int64
	Count   int64
	Extents int64
}

func (e *LostError) Error() string {
	return fmt.Sprintf("core: %s [%d,+%d) lost %d extent(s) beyond redundancy",
		e.Op, e.Block, e.Count, e.Extents)
}

// retryOp is one logical device submission being shepherded through
// transient errors: on an error completion it resubmits after an
// exponentially growing backoff until the attempt budget runs out.
// Pooled like the array's joins, but a type of its own: it shepherds one
// submission, has a Fail edge and a timer, and is not a fan-in.
type retryOp struct {
	arr     *Array
	dev     int
	op      disk.Op
	block   int64
	count   int64
	attempt int
	done    func(sim.Time)
	doneFn  func(sim.Time)
	failFn  func(sim.Time)
	retryFn func()
	next    *retryOp
}

func (f *faultState) newRetry(a *Array, dev int, op disk.Op, block, count int64, done func(sim.Time)) *retryOp {
	r := f.retryFree
	if r == nil {
		f.retriesMade++
		r = &retryOp{arr: a}
		r.doneFn = r.complete
		r.failFn = r.fail
		r.retryFn = r.retry
	} else {
		f.retryFree = r.next
		r.next = nil
	}
	r.dev, r.op, r.block, r.count = dev, op, block, count
	r.done, r.attempt = done, 0
	return r
}

// fail runs when an attempt completes with an error (injected verdict
// or a Failed-device rejection).
func (r *retryOp) fail(at sim.Time) {
	f := r.arr.faults
	f.stats.Transients++
	r.attempt++
	if r.attempt >= maxAttempts || r.arr.deviceDown(r.dev) {
		// Budget exhausted, or the disk died under us: give up. The
		// caller's join still completes — the simulator models timing —
		// and the loss is visible in the stats.
		f.stats.Permanent++
		r.complete(at)
		return
	}
	f.stats.Retries++
	r.arr.Eng.After(retryBase<<uint(r.attempt-1), r.retryFn)
}

// retry resubmits the attempt.
func (r *retryOp) retry() {
	r.arr.issue(r.dev, r.op, r.block, r.count, r.doneFn, r.failFn)
}

// complete finishes the logical submission and recycles the op (before
// done, which may submit further I/O and reclaim it).
func (r *retryOp) complete(at sim.Time) {
	f := r.arr.faults
	done := r.done
	r.done = nil
	r.next = f.retryFree
	f.retryFree = r
	if done != nil {
		done(at)
	}
}

// FaultRuntime binds a fault.Plan to a volume: it owns the per-device
// injectors, compiles the plan's events onto the simulation clock, and
// drives rebuild traffic through the same engine — and the same device
// queues — the monitor runs on.
type FaultRuntime struct {
	arr  *Array
	vol  Volume
	seed uint64
	devs []*fault.Device
	down int // devices currently routed around

	// epoch counts fault-runtime incarnations: a crash-restart bumps it
	// and every in-flight rebuild chain checks it, so chains belonging
	// to the torn-down incarnation complete as timing only while the
	// restarted incarnation re-walks from row zero.
	epoch    uint64
	rebuilds []*rebuildJob // active jobs, in start order

	// deviceFactory constructs the devices expand events add to the
	// array; without one, an expand event is a fatal plan error.
	deviceFactory func(n int) []disk.Device

	// crashSrc, when set, supplies the log image CrashRestart events
	// recover from.
	crashSrc func() (io.Reader, error)
	err      error
}

// InstallFaults arms plan on vol's array. Injectors attach to every
// device up front — verdict counters advance uniformly from time zero,
// making each draw independent of when transient windows open — and
// every event schedules its sim-clock callback immediately, before any
// replay records are scheduled, so same-instant fault transitions
// order ahead of record submissions. Call once, before the replay
// starts.
//
// The plan is validated against the array's width first: an event
// targeting a device the array does not have (accounting for devices
// expand events add) is an input error, reported here rather than
// surfacing as a silent no-op deep in the disk layer. Expand events
// additionally require a CRAID volume and a device factory
// (SetDeviceFactory) before the first event fires.
func InstallFaults(arr *Array, vol Volume, plan fault.Plan) (*FaultRuntime, error) {
	if err := plan.Validate(arr.Devices()); err != nil {
		return nil, err
	}
	if plan.HasExpand() {
		if _, ok := vol.(*CRAID); !ok {
			return nil, fmt.Errorf("fault: expand events require a CRAID volume")
		}
	}
	rt := &FaultRuntime{arr: arr, vol: vol, seed: plan.Seed}
	arr.faults = &faultState{}
	arr.faults.ensure(arr.Devices() - 1)
	rt.devs = make([]*fault.Device, arr.Devices())
	for i := range rt.devs {
		rt.devs[i] = fault.NewDevice(plan.Seed, i)
		if fd, ok := arr.Device(i).(disk.Faultable); ok {
			fd.SetInjector(rt.devs[i])
		}
	}
	for _, ev := range plan.Events {
		rt.schedule(ev)
	}
	return rt, nil
}

// Stats returns the runtime's counters (a live view; read after the
// engine stops for final values).
func (rt *FaultRuntime) Stats() *FaultStats { return &rt.arr.faults.stats }

// Err reports the first fatal fault-processing error (a failed crash
// recovery), which also stopped the engine.
func (rt *FaultRuntime) Err() error { return rt.err }

// SetCrashSource provides the log image CrashRestart events recover
// from — e.g. an in-memory mirror of what SetMappingLog's writer
// received; the mapping log is flushed before fn is called. Without
// one, crash events restart the controller cold (all cached state lost).
func (rt *FaultRuntime) SetCrashSource(fn func() (io.Reader, error)) { rt.crashSrc = fn }

// SetDeviceFactory supplies the constructor expand events use to build
// the n devices they add to the array. The factory runs on the sim
// goroutine at the event's instant; device naming/indexing starts at
// the array's width at that instant.
func (rt *FaultRuntime) SetDeviceFactory(fn func(n int) []disk.Device) { rt.deviceFactory = fn }

func (rt *FaultRuntime) schedule(ev fault.Event) {
	eng := rt.arr.Eng
	switch ev.Kind {
	case fault.DiskFail:
		dev := ev.Dev
		eng.Schedule(ev.At, func() { rt.failDisk(dev) })
	case fault.Transient:
		dev, rate, lat := ev.Dev, ev.Rate, ev.LatencyX
		eng.Schedule(ev.At, func() {
			if dev < len(rt.devs) {
				rt.devs[dev].SetTransient(rate, lat)
			}
		})
		if ev.Until > ev.At {
			eng.Schedule(ev.Until, func() {
				if dev < len(rt.devs) {
					rt.devs[dev].ClearTransient()
				}
			})
		}
	case fault.Rebuild:
		dev, rate := ev.Dev, ev.RateMBps
		eng.Schedule(ev.At, func() { rt.startRebuild(dev, rate) })
	case fault.CrashRestart:
		eng.Schedule(ev.At, func() { rt.crashRestart() })
	case fault.Storm:
		// A storm is sugar for N crash-restarts at a fixed cadence; each
		// cycle schedules at install time so the sequence is bit-identical
		// to spelling the crashes out individually.
		for i := 0; i < ev.N; i++ {
			eng.Schedule(ev.At+sim.Time(i)*ev.Every, func() { rt.crashRestart() })
		}
	case fault.Expand:
		disks, retain := ev.Disks, ev.Retain
		eng.Schedule(ev.At, func() { rt.expand(disks, retain) })
	}
}

// expand fires an expand@ event: build the new devices, run the online
// upgrade through the volume, arm injectors on the added devices, and
// record the upgrade KPIs. The drain callback stamps ExpandEnd when the
// upgrade's background I/O (write-backs or migrations) completes, which
// together with ExpandStart yields the upgrade-latency KPI.
func (rt *FaultRuntime) expand(disks int, retain bool) {
	c, ok := rt.vol.(*CRAID)
	if !ok {
		rt.fatal(fmt.Errorf("fault: expand event requires a CRAID volume"))
		return
	}
	if rt.deviceFactory == nil {
		rt.fatal(fmt.Errorf("fault: expand event fired with no device factory installed"))
		return
	}
	newDevs := rt.deviceFactory(disks)
	if len(newDevs) != disks {
		rt.fatal(fmt.Errorf("fault: device factory built %d device(s), expand wants %d", len(newDevs), disks))
		return
	}
	f := rt.arr.faults
	base := rt.arr.Devices()
	if f.stats.ExpandStart == 0 {
		f.stats.ExpandStart = rt.arr.Eng.Now()
	}
	st := c.Expand(newDevs, retain, func(at sim.Time) {
		if at > f.stats.ExpandEnd {
			f.stats.ExpandEnd = at
		}
	})
	f.stats.Upgrades++
	f.stats.ExpandMigrated += st.Migrated
	f.stats.ExpandWriteback += st.DirtyWriteback
	f.stats.ExpandInvalidated += st.Invalidated
	// The added devices join the fault fabric: failure routing state and
	// deterministic injectors keyed by their final indices, so later
	// events may target them.
	f.ensure(rt.arr.Devices() - 1)
	for i := base; i < rt.arr.Devices(); i++ {
		d := fault.NewDevice(rt.seed, i)
		rt.devs = append(rt.devs, d)
		if fd, ok := rt.arr.Device(i).(disk.Faultable); ok {
			fd.SetInjector(d)
		}
	}
}

func (rt *FaultRuntime) failDisk(dev int) {
	f := rt.arr.faults
	if dev >= rt.arr.Devices() {
		return
	}
	f.ensure(dev)
	if f.failed[dev] {
		return
	}
	f.failed[dev] = true
	f.stats.Failures++
	if fd, ok := rt.arr.Device(dev).(disk.Faultable); ok {
		fd.SetFailed(true)
	}
	rt.down++
	rt.setDegraded()
}

// setDegraded brackets the volume's degraded-window latency recording.
func (rt *FaultRuntime) setDegraded() {
	if d, ok := rt.vol.(interface{ setDegraded(bool) }); ok {
		d.setDegraded(rt.down > 0)
	}
}

// spans lists the volume's device-backed partitions, for rebuild
// discovery.
func (rt *FaultRuntime) spans() []*span {
	switch v := rt.vol.(type) {
	case *CRAID:
		return []*span{v.pc, v.pa}
	case *RAIDController:
		return []*span{v.span}
	}
	return nil
}

// rebuildJob reconstructs one failed device: a sequence of per-span
// stripe-row walks, paced to the configured rate. The epoch stamp is
// the incarnation that launched the job: a crash-restart bumps the
// runtime's epoch and relaunches active jobs from row zero, so a stale
// job's in-flight chains complete as timing only.
type rebuildJob struct {
	rt       *FaultRuntime
	dev      int
	rateMBps float64
	epoch    uint64
	walks    []spanWalk
	cur      int
	lostRows int64 // rows this job declared unrecoverable

	// The batch in flight. A job runs one batch at a time (the write's
	// completion schedules the next step), so the batch lives in fields
	// and its three stages are method values bound once at launch: a
	// rebuild walks millions of rows and allocates nothing per batch.
	batch     rebuildBatch
	stepFn    func()
	readFn    func(sim.Time)
	decodedFn func()
	writtenFn func(sim.Time)
}

// rebuildBatch is one run of consecutive stripe rows being rebuilt.
type rebuildBatch struct {
	s       *span
	blk, n  int64 // device block range of the run
	rows    int64
	missing int      // units the decode solves for: the spare plus later erasures
	start   sim.Time // batch start, which the rate limit paces from
}

type spanWalk struct {
	s *span
	w *raid.RebuildWalker
}

// startRebuild brings a spare online for dev and walks its stripe rows
// at rateMBps: for each row, read the surviving peers, pay the
// reconstruction compute, write the unit onto the spare. The device's
// Failed state clears immediately (the spare accepts the rebuild
// writes) but the array keeps routing client I/O around it — reads
// still reconstruct — until the walk completes and the device rejoins.
// Traffic flows through the ordinary submission path, so it contends
// with the monitor on the same queues.
func (rt *FaultRuntime) startRebuild(dev int, rateMBps float64) {
	f := rt.arr.faults
	if dev >= rt.arr.Devices() || dev >= len(f.failed) || !f.failed[dev] {
		return
	}
	if rateMBps <= 0 {
		rateMBps = fault.DefaultRateMBps
	}
	if fd, ok := rt.arr.Device(dev).(disk.Faultable); ok {
		fd.SetFailed(false)
	}
	if f.stats.RebuildStart == 0 {
		f.stats.RebuildStart = rt.arr.Eng.Now()
	}
	rt.launchRebuild(dev, rateMBps)
}

// launchRebuild builds the walk job for dev and starts it. Shared by
// startRebuild and the crash-restart relaunch path; the walks resolve
// against the volume's current spans, so a post-crash relaunch walks
// the rebuilt geometry.
func (rt *FaultRuntime) launchRebuild(dev int, rateMBps float64) {
	job := &rebuildJob{rt: rt, dev: dev, rateMBps: rateMBps, epoch: rt.epoch}
	job.stepFn, job.readFn, job.decodedFn, job.writtenFn = job.step, job.peersRead, job.decoded, job.written
	for _, s := range rt.spans() {
		if s.red == nil {
			continue
		}
		li := -1
		for i, d := range s.disks {
			if d == dev {
				li = i
				break
			}
		}
		if li < 0 {
			continue
		}
		job.walks = append(job.walks, spanWalk{s: s, w: raid.NewRebuildWalker(s.red, li)})
	}
	rt.rebuilds = append(rt.rebuilds, job)
	job.step()
}

// unregister drops job from the active-rebuild registry.
func (rt *FaultRuntime) unregister(job *rebuildJob) {
	for i, j := range rt.rebuilds {
		if j == job {
			rt.rebuilds = append(rt.rebuilds[:i], rt.rebuilds[i+1:]...)
			return
		}
	}
}

// rebuildBatchRows is how many consecutive stripe rows one rebuild step
// reconstructs as a single device-contiguous run (RebuildWalker.NextRun):
// one read per surviving peer, one aggregated decode charge and one
// spare write cover the whole batch, so the per-row join/submission
// overhead — and the geometry resolution — amortizes 8x while the
// rate pacing still bounds the burst to a fraction of a stripe-unit
// second at default rates.
const rebuildBatchRows = 8

// step launches the next stripe-row batch, or finishes the rebuild when
// every span walk is exhausted. A stale epoch means a crash-restart
// tore this job's incarnation down — the relaunched job owns the walk
// now.
func (r *rebuildJob) step() {
	if r.epoch != r.rt.epoch {
		return
	}
	for r.cur < len(r.walks) {
		sw := r.walks[r.cur]
		blk, n, rows, peers, ok := sw.w.NextRun(rebuildBatchRows)
		if !ok {
			r.cur++
			continue
		}
		r.run(sw, blk, n, rows, peers)
		return
	}
	r.finish()
}

// run reconstructs one batch of consecutive stripe rows: read the
// surviving peers once across the whole run, pay the aggregated decode,
// write the run to the spare in one submission, then schedule the next
// batch no earlier than the rate limit allows (pacing is by batch
// start and sized to the batch, so a loaded array that services a
// batch slowly is simply late, never bursty).
func (r *rebuildJob) run(sw spanWalk, blk, n, rows int64, peers []int) {
	rt := r.rt
	eng := rt.arr.Eng
	s := sw.s
	dev := r.dev
	// Re-plan around erasures that arrived since the rebuild began: every
	// peer of this span's group that is down now is a further missing
	// unit the decode must solve, on top of the device being rebuilt.
	// Within the parity budget the batch proceeds with a deeper (and
	// proportionally costlier) decode over the survivors; beyond it the
	// rows of this span are unrecoverable and the walk aborts.
	missing := 1
	for _, p := range peers {
		if d := s.disks[p]; d != dev && rt.arr.deviceDown(d) {
			missing++
		}
	}
	if missing > s.red.ParityUnits() {
		r.abortWalk(sw, rows)
		return
	}
	r.batch = rebuildBatch{s: s, blk: blk, n: n, rows: rows, missing: missing, start: eng.Now()}
	sub := rt.arr.newJoin(r.readFn)
	s.readPeers(sub, peers, -1, -1, s.base+blk, n)
	sub.seal(eng.Now())
}

// peersRead runs when the batch's peer reads are in: pay the decode.
func (r *rebuildJob) peersRead(sim.Time) {
	if r.epoch != r.rt.epoch {
		return
	}
	b := &r.batch
	r.rt.arr.Eng.After(reconPerBlock*sim.Time(b.n)*sim.Time(b.missing), r.decodedFn)
}

// decoded writes the reconstructed run onto the spare.
func (r *rebuildJob) decoded() {
	if r.epoch != r.rt.epoch {
		return
	}
	b := &r.batch
	r.rt.arr.submit(r.dev, disk.OpWrite, b.s.base+b.blk, b.n, r.writtenFn)
}

// written counts the batch and schedules the next step.
func (r *rebuildJob) written(sim.Time) {
	if r.epoch != r.rt.epoch {
		return
	}
	eng, f, b := r.rt.arr.Eng, r.rt.arr.faults, &r.batch
	f.stats.RebuildRows += b.rows
	f.stats.RebuildBlocks += b.n
	next := b.start + sim.Time(float64(b.n*disk.BlockSize)*1000/r.rateMBps)
	if next < eng.Now() {
		next = eng.Now()
	}
	eng.Schedule(next, r.stepFn)
}

// abortWalk declares the current span walk unrecoverable — a further
// erasure pushed the group past its parity budget mid-rebuild. The
// current batch and every row the walk had not reached count as lost,
// and the job moves on to its remaining spans (whose groups may still
// be within budget).
func (r *rebuildJob) abortWalk(sw spanWalk, rows int64) {
	lost := rows
	for {
		_, _, rr, _, ok := sw.w.NextRun(sw.w.Rows())
		if !ok {
			break
		}
		lost += rr
	}
	r.lostRows += lost
	r.rt.arr.faults.stats.RebuildLostRows += lost
	r.cur++
	r.step()
}

// finish completes the job. A clean job rejoins the device — client I/O
// routes to it again; a job that lost rows leaves the device routed
// around forever, because the spare's content is incomplete.
func (r *rebuildJob) finish() {
	rt := r.rt
	f := rt.arr.faults
	f.stats.RebuildEnd = rt.arr.Eng.Now()
	rt.unregister(r)
	if r.lostRows > 0 {
		return
	}
	f.failed[r.dev] = false
	rt.down--
	rt.setDegraded()
}

func (rt *FaultRuntime) crashRestart() {
	c, ok := rt.vol.(*CRAID)
	if !ok {
		rt.fatal(fmt.Errorf("fault: crash-restart requires a CRAID volume"))
		return
	}
	var src io.Reader
	if rt.crashSrc != nil {
		// The image is the log as of this instant, what a recovery
		// re-logged since the last apply step included.
		if err := c.flushLog(); err != nil {
			rt.fatal(fmt.Errorf("fault: %w", err))
			return
		}
		r, err := rt.crashSrc()
		if err != nil {
			rt.fatal(fmt.Errorf("fault: reading crash log image: %w", err))
			return
		}
		src = r
	}
	n, err := c.CrashRestart(src)
	if err != nil {
		rt.fatal(fmt.Errorf("fault: crash recovery: %w", err))
		return
	}
	f := rt.arr.faults
	f.stats.Restarts++
	f.stats.RecoveredMappings += int64(n)
	// Tear down in-flight rebuild chains — they died with the controller
	// incarnation — and relaunch each active rebuild from row zero
	// against the recovered geometry, in start order.
	rt.epoch++
	if len(rt.rebuilds) > 0 {
		old := rt.rebuilds
		rt.rebuilds = nil
		for _, j := range old {
			f.stats.RebuildRestarts++
			rt.launchRebuild(j.dev, j.rateMBps)
		}
	}
}

// fatal records the first unrecoverable fault-processing error and
// stops the engine; ReplayWith then returns with the trace unfinished
// and the caller reads Err.
func (rt *FaultRuntime) fatal(err error) {
	if rt.err == nil {
		rt.err = err
	}
	rt.arr.Eng.Stop()
}
