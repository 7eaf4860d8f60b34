package core

import (
	"bytes"
	"fmt"
	"slices"

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
	Transients int64 // device completions with an error: a verdict or a rejection
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

// devState is a device's health as the fault runtime keeps it.
type devState uint8

const (
	devUp    devState = iota // in service
	devDead                  // routed around; rejects I/O
	devSpare                 // routed around; accepts I/O: a rebuild is walking, or a walk lost rows
)

// devFault is the fault runtime's one record of a device: its health and
// the stream its attempts draw their verdicts from, nil while an Expand
// attaches the device (those attempts draw nothing).
type devFault struct {
	state devState
	draws *fault.Device
}

// dead reports whether dev rejects I/O.
func (rt *FaultRuntime) dead(dev int) bool {
	return dev < len(rt.devs) && rt.devs[dev].state == devDead
}

// draws returns dev's verdict stream, nil for a device the array does
// not have yet or an Expand is attaching.
func (rt *FaultRuntime) draws(dev int) *fault.Device {
	if dev >= len(rt.devs) {
		return nil
	}
	return rt.devs[dev].draws
}

// fate decides one attempt on dev: a dead device rejects it, and any
// other draws its verdict — one draw per accepted attempt, in submission
// order.
func (rt *FaultRuntime) fate(dev int) (reject, errs bool, latX float64) {
	if rt.dead(dev) {
		return true, false, 0
	}
	if d := rt.draws(dev); d != nil {
		errs, latX = d.Verdict()
	}
	return false, errs, latX
}

// attempt makes the first attempt at a device submission, for
// Array.submit. An attempt its fate dooms, rejected or drawn to err, goes
// out as the one branch of a pooled join whose stepRetry decides what
// follows; any other goes out with the caller's done, as with no fault
// runtime.
func (rt *FaultRuntime) attempt(dev int, op disk.Op, block, count int64, done func(sim.Time)) {
	reject, errs, latX := rt.fate(dev)
	if !reject && !errs {
		rt.arr.issue(dev, op, block, count, done, false, false, latX)
		return
	}
	j := rt.arr.newJoin(done)
	j.op, j.n, j.dev[0], j.blk[0] = op, count, dev, block
	rt.issueOn(j, stepRetry, reject, errs, latX)
}

// reattempt makes the next attempt at the submission j carries, its
// backoff over: a doomed one waits for stepRetry again, any other for
// stepTell.
func (rt *FaultRuntime) reattempt(j *join) {
	reject, errs, latX := rt.fate(j.dev[0])
	next := stepTell
	if reject || errs {
		next = stepRetry
	}
	rt.issueOn(j, next, reject, errs, latX)
}

// issueOn re-arms j for next and issues its attempt as j's one branch.
func (rt *FaultRuntime) issueOn(j *join, next step, reject, errs bool, latX float64) {
	j.rearm(next)
	rt.arr.issue(j.dev[0], j.op, j.blk[0], j.n, j.branch(), reject, errs, latX)
	j.seal(rt.arr.Eng.Now())
}

// retry is j's stepRetry: its doomed attempt is in. It counts the
// transient, then gives up when the budget is spent or the device is
// dead (a spare accepts I/O, so its errors retry), and otherwise waits
// out an exponentially growing backoff on a timer branch, after which j
// makes the next attempt. It reports whether j waits again; a join that
// gave up tells its caller like any other — the simulator models timing
// — and the loss is in the stats.
func (rt *FaultRuntime) retry(j *join) bool {
	rt.stats.Transients++
	j.tries++
	if j.tries >= maxAttempts || rt.dead(j.dev[0]) {
		rt.stats.Permanent++
		return false
	}
	rt.stats.Retries++
	j.rearm(stepReattempt)
	rt.arr.Eng.AfterTimed(retryBase<<(j.tries-1), j.branch())
	j.seal(rt.arr.Eng.Now())
	return true
}

// FaultRuntime binds a fault.Plan to a volume: it keeps each device's
// health, decides each device attempt's fate, compiles the plan's events
// onto the simulation clock, and drives rebuild traffic through the same
// engine — and the same device queues — the monitor runs on.
//
// Installed, it is also the array's fault state (Array.faults): every
// hot-path check on a healthy run is a single nil test.
type FaultRuntime struct {
	arr     *Array
	vol     Volume
	seed    uint64
	devs    []devFault // device index → its one fault record
	stats   FaultStats
	peerBuf []int // scratch for Redundant.RowPeers

	rebuilds []*rebuildJob // active jobs, in start order

	// deviceFactory constructs the devices expand events add to the
	// array; without one, an expand event is a fatal plan error.
	deviceFactory func(n int) []disk.Device

	err error
}

// InstallFaults arms plan on vol's array. Every device gets its fault
// record up front — verdict counters advance uniformly from time zero,
// making each draw independent of when transient windows open — and
// every event schedules its sim-clock callback immediately, before any
// replay records are scheduled, so same-instant fault transitions
// order ahead of record submissions. Call once, before the replay
// starts.
//
// The plan is validated against the array's width first: an event
// targeting a device the array does not have (accounting for devices
// expand events add) is an input error, reported here rather than
// surfacing as a silent no-op deep in the disk layer. Expand and crash
// events additionally require a CRAID volume, and expand events a device
// factory (SetDeviceFactory) before the first event fires. A plan with
// a crash points the CRAID's mapping table at the in-memory dirty log
// its crashes recover from (CRAID.image), so it logs from here on.
func InstallFaults(arr *Array, vol Volume, plan fault.Plan) (*FaultRuntime, error) {
	if err := plan.Validate(arr.Devices()); err != nil {
		return nil, err
	}
	c, craid := vol.(*CRAID)
	switch {
	case plan.HasExpand() && !craid:
		return nil, fmt.Errorf("fault: expand events require a CRAID volume")
	case plan.HasCrash() && !craid:
		return nil, fmt.Errorf("fault: crash events require a CRAID volume")
	case plan.HasCrash():
		c.image = new(bytes.Buffer)
		c.mon.table.SetLog(c.image)
	}
	rt := &FaultRuntime{arr: arr, vol: vol, seed: plan.Seed, devs: make([]devFault, arr.Devices())}
	arr.faults = rt
	for i := range rt.devs {
		rt.devs[i].draws = fault.NewDevice(plan.Seed, i)
	}
	for _, ev := range plan.Events {
		rt.schedule(ev)
	}
	return rt, nil
}

// Stats returns the runtime's counters (a live view; read after the
// engine stops for final values).
func (rt *FaultRuntime) Stats() *FaultStats { return &rt.stats }

// Err reports the first fatal fault-processing error (a failed crash
// recovery), which also stopped the engine.
func (rt *FaultRuntime) Err() error { return rt.err }

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
			if d := rt.draws(dev); d != nil {
				d.SetTransient(rate, lat)
			}
		})
		if ev.Until > ev.At {
			eng.Schedule(ev.Until, func() {
				if d := rt.draws(dev); d != nil {
					d.ClearTransient()
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
// upgrade through the volume, give the added devices their verdict
// streams, and record the upgrade KPIs. The drain callback stamps
// ExpandEnd when the upgrade's background I/O (write-backs or
// migrations) completes, which together with ExpandStart yields the
// upgrade-latency KPI.
func (rt *FaultRuntime) expand(disks int, retain bool) {
	c := rt.vol.(*CRAID) // InstallFaults checked the volume
	if rt.deviceFactory == nil {
		rt.fatal(fmt.Errorf("fault: expand event fired with no device factory installed"))
		return
	}
	newDevs := rt.deviceFactory(disks)
	if len(newDevs) != disks {
		rt.fatal(fmt.Errorf("fault: device factory built %d device(s), expand wants %d", len(newDevs), disks))
		return
	}
	base := rt.arr.Devices()
	if rt.stats.ExpandStart == 0 {
		rt.stats.ExpandStart = rt.arr.Eng.Now()
	}
	// The added devices join the fault fabric, so later events may target
	// them: a record each, up, before Expand issues I/O to them, and a
	// deterministic verdict stream keyed by their final indices once they
	// are attached.
	rt.devs = append(rt.devs, make([]devFault, base+disks-len(rt.devs))...)
	st := c.Expand(newDevs, retain, func(at sim.Time) {
		if at > rt.stats.ExpandEnd {
			rt.stats.ExpandEnd = at
		}
	})
	rt.stats.Upgrades++
	rt.stats.ExpandMigrated += st.Migrated
	rt.stats.ExpandWriteback += st.DirtyWriteback
	rt.stats.ExpandInvalidated += st.Invalidated
	for i := base; i < rt.arr.Devices(); i++ {
		rt.devs[i].draws = fault.NewDevice(rt.seed, i)
	}
}

// failDisk kills dev: from now on it is routed around and rejects I/O.
// A spare dies too, and the rebuild walking onto it is abandoned: it
// issues no more I/O, what it has in flight completes as timing only, a
// crash does not relaunch it, and a later rebuild starts at row zero.
func (rt *FaultRuntime) failDisk(dev int) {
	if dev >= len(rt.devs) || rt.devs[dev].state == devDead {
		return
	}
	rt.devs[dev].state = devDead
	rt.stats.Failures++
	if job := rt.rebuildOf(dev); job != nil {
		job.abandoned = true
		rt.unregister(job)
	}
	rt.setDegraded()
}

// setDegraded brackets the volume's degraded-window latency recording:
// the window is open while any device is routed around.
func (rt *FaultRuntime) setDegraded() {
	if d, ok := rt.vol.(interface{ setDegraded(bool) }); ok {
		d.setDegraded(slices.ContainsFunc(rt.devs, func(d devFault) bool { return d.state != devUp }))
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
// the controller incarnation that launched the job: a crash-restart
// bumps the array's epoch and relaunches active jobs from row zero, so a
// stale job's in-flight chains complete as timing only — as do an
// abandoned job's, whose spare died under it.
type rebuildJob struct {
	rt        *FaultRuntime
	dev       int
	rateMBps  float64
	epoch     uint64
	abandoned bool
	walks     []spanWalk
	cur       int
	lostRows  int64 // rows this job declared unrecoverable

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
// reconstruction compute, write the unit onto the spare. The device
// turns spare at once (it accepts the rebuild writes) but the array
// keeps routing client I/O around it — reads still reconstruct — until
// the walk completes and the device rejoins. Traffic flows through the
// ordinary submission path, so it contends with the monitor on the same
// queues. A device that is up, or whose rebuild is still walking, has
// nothing to start; a spare whose walk lost rows is walked again.
func (rt *FaultRuntime) startRebuild(dev int, rateMBps float64) {
	if dev >= len(rt.devs) || rt.devs[dev].state == devUp || rt.rebuildOf(dev) != nil {
		return
	}
	if rateMBps <= 0 {
		rateMBps = fault.DefaultRateMBps
	}
	rt.devs[dev].state = devSpare
	if rt.stats.RebuildStart == 0 {
		rt.stats.RebuildStart = rt.arr.Eng.Now()
	}
	rt.launchRebuild(dev, rateMBps)
}

// launchRebuild builds the walk job for dev and starts it. Shared by
// startRebuild and the crash-restart relaunch path; the walks resolve
// against the volume's current spans, so a post-crash relaunch walks
// the rebuilt geometry.
func (rt *FaultRuntime) launchRebuild(dev int, rateMBps float64) {
	job := &rebuildJob{rt: rt, dev: dev, rateMBps: rateMBps, epoch: rt.arr.epoch}
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

// rebuildOf returns dev's active rebuild job, nil if none is walking.
func (rt *FaultRuntime) rebuildOf(dev int) *rebuildJob {
	for _, j := range rt.rebuilds {
		if j.dev == dev {
			return j
		}
	}
	return nil
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

// stale reports that the job no longer owns its walk: a crash-restart
// tore down the incarnation that launched it (the relaunched job owns
// the walk now), or its spare died.
func (r *rebuildJob) stale() bool { return r.abandoned || r.epoch != r.rt.arr.epoch }

// step launches the next stripe-row batch, or finishes the rebuild when
// every span walk is exhausted.
func (r *rebuildJob) step() {
	if r.stale() {
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
	if r.stale() {
		return
	}
	b := &r.batch
	r.rt.arr.Eng.After(reconPerBlock*sim.Time(b.n)*sim.Time(b.missing), r.decodedFn)
}

// decoded writes the reconstructed run onto the spare.
func (r *rebuildJob) decoded() {
	if r.stale() {
		return
	}
	b := &r.batch
	r.rt.arr.submit(r.dev, disk.OpWrite, b.s.base+b.blk, b.n, r.writtenFn)
}

// written counts the batch and schedules the next step.
func (r *rebuildJob) written(sim.Time) {
	if r.stale() {
		return
	}
	eng, st, b := r.rt.arr.Eng, &r.rt.stats, &r.batch
	st.RebuildRows += b.rows
	st.RebuildBlocks += b.n
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
	r.rt.stats.RebuildLostRows += lost
	r.cur++
	r.step()
}

// finish completes the job. A clean job rejoins the device — client I/O
// routes to it again; a job that lost rows leaves the device routed
// around forever, because the spare's content is incomplete.
func (r *rebuildJob) finish() {
	rt := r.rt
	rt.stats.RebuildEnd = rt.arr.Eng.Now()
	rt.unregister(r)
	if r.lostRows > 0 {
		return
	}
	rt.devs[r.dev].state = devUp
	rt.setDegraded()
}

// crashRestart restarts the controller from its dirty-log image as of
// this instant. A crash is an engine event, never inside a Submit, so
// the image holds every record the table has appended.
func (rt *FaultRuntime) crashRestart() {
	c := rt.vol.(*CRAID) // InstallFaults checked the volume
	n, err := c.CrashRestart(bytes.NewReader(c.image.Bytes()))
	if err != nil {
		rt.fatal(fmt.Errorf("fault: crash recovery: %w", err))
		return
	}
	rt.stats.Restarts++
	rt.stats.RecoveredMappings += int64(n)
	// CrashRestart advanced the epoch, so in-flight rebuild chains died
	// with the controller incarnation: relaunch each active rebuild from
	// row zero against the recovered geometry, in start order.
	if len(rt.rebuilds) > 0 {
		old := rt.rebuilds
		rt.rebuilds = nil
		for _, j := range old {
			rt.stats.RebuildRestarts++
			rt.launchRebuild(j.dev, j.rateMBps)
		}
	}
}

// fatal records the first unrecoverable fault-processing error and
// stops the engine; Replay then returns with the trace unfinished
// and the caller reads Err.
func (rt *FaultRuntime) fatal(err error) {
	if rt.err == nil {
		rt.err = err
	}
	rt.arr.Eng.Stop()
}
