package disk

import (
	"math"

	"craid/internal/fastdiv"
	"craid/internal/sim"
)

// HDDConfig describes a hard-disk model. The zero value is not valid;
// start from CheetahConfig (or NewHDDConfig) and adjust.
type HDDConfig struct {
	Name string

	// Geometry.
	CapacityBlocks int64 // total logical blocks
	Heads          int   // surfaces (blocks per cylinder = Heads * blocks per track)
	Zones          int   // number of recording zones
	OuterBlocksPT  int   // blocks per track in the outermost zone
	InnerBlocksPT  int   // blocks per track in the innermost zone

	// Mechanics.
	RPM            int      // spindle speed
	TrackToTrack   sim.Time // minimum (single-cylinder) seek
	AvgSeek        sim.Time // average seek (uniform random pairs)
	FullSeek       sim.Time // full-stroke seek
	HeadSwitch     sim.Time // surface switch during sequential transfer
	ControllerOver sim.Time // per-request controller/bus overhead

	// Cache.
	CacheSegments    int // read segments
	SegmentBlocks    int // blocks per read segment (read-ahead unit)
	WriteCacheBlocks int // write-back buffer capacity, 0 disables write-back
}

// CheetahConfig returns parameters approximating the Seagate Cheetah
// 15K.5 (146 GB, 15 000 RPM, 16 MiB cache) that the paper's DiskSim
// testbed uses. Values come from the drive datasheet the paper cites.
func CheetahConfig(name string) HDDConfig {
	return HDDConfig{
		Name:             name,
		CapacityBlocks:   146 * 1000 * 1000 * 1000 / BlockSize, // 146 GB
		Heads:            4,
		Zones:            16,
		OuterBlocksPT:    122, // ~125 MB/s outer sustained rate at 15 kRPM
		InnerBlocksPT:    71,  // ~73 MB/s inner
		RPM:              15000,
		TrackToTrack:     200 * sim.Microsecond,
		AvgSeek:          3500 * sim.Microsecond,
		FullSeek:         7400 * sim.Microsecond,
		HeadSwitch:       300 * sim.Microsecond,
		ControllerOver:   100 * sim.Microsecond,
		CacheSegments:    16,
		SegmentBlocks:    256,  // 16 segments * 256 blocks * 4 KiB = 16 MiB
		WriteCacheBlocks: 1024, // 4 MiB of the cache dedicated to writes
	}
}

// zone is a contiguous run of cylinders with a common track density.
type zone struct {
	firstBlock int64 // first logical block of the zone
	endBlock   int64 // first logical block past the zone
	firstCyl   int64
	cylinders  int64
	blocksPT   int64 // blocks per track
	blocksPCyl int64 // blocks per cylinder (= blocksPT * heads)

	// What every media access in the zone would otherwise recompute.
	perTrack  fastdiv.Divisor // by blocksPT
	perCyl    fastdiv.Divisor // by blocksPCyl
	blocksPTf float64         // float64(blocksPT)
	perBlock  sim.Time        // transfer time of one block: a track per revolution
}

// place is where a block sits on the platters.
type place struct {
	zn    *zone
	cyl   int64 // absolute cylinder
	pos   int64 // block offset on its track
	inCyl int64 // block offset in its cylinder
}

// HDD is an event-driven hard-disk model: a single mechanical arm, a
// rotating platter stack with zoned density, a segmented read cache
// with read-ahead, an optional write-back buffer, and a LOOK-scheduled
// queue.
//
// A request's place on the platters is resolved once, when Submit sends
// it to the media (hddReq.place): LOOK compares every queued request on
// every dispatch and the media access needs zone, cylinder and track
// position again, and neither searches the zone table a second time.
type HDD struct {
	eng   *sim.Engine
	cfg   HDDConfig
	stats Stats

	zones     []zone
	revTime   sim.Time        // one platter revolution
	revTimeF  float64         // float64(revTime)
	perRev    fastdiv.Divisor // by revTime
	seekB     float64         // sqrt coefficient of the seek curve (ns)
	seekC     float64         // linear coefficient of the seek curve (ns)
	totalCyls int64

	queue   []hddReq
	busy    bool
	curCyl  int64
	sweepUp bool // sweep direction

	// census, when joined, is told each flip of busy||destaging: kick
	// starts media service or a destage only from idle, so the two flags
	// are never set together and each flip is one step.
	census *Census

	// Read cache: fixed number of segments, each holding one
	// contiguous block range; LRU replacement, recency kept as a list
	// threaded through the segments from segLRU to segMRU.
	segments       []segment
	segLRU, segMRU int32

	// Write-back state.
	dirty       int64 // blocks waiting for destage
	dirtyRanges []blockRange
	destaging   bool
	stalled     []hddReq // writes waiting for write-cache space
	admitting   bool     // admitStalled is walking stalled

	// In-service completion, parked in a field rather than a closure:
	// the busy flag admits exactly one request to the media at a time,
	// so finish() stamps its callback here and schedules the one cached
	// finishFn method value — no per-I/O allocation. (A write the cache
	// absorbs completes through the engine alone: nothing of the drive's
	// changes when it does.)
	finDone  func(at sim.Time)
	finishFn func()

	// Destage completion, same single-flight argument via destaging.
	destageN  int64
	destageFn func()
}

// hddReq is what the HDD keeps of a submitted request while it waits in
// queue or stalled: Submit copies it out, so the caller's *Request is
// free for reuse as soon as Submit returns.
type hddReq struct {
	op    Op
	fail  bool // the request's Err: complete with an error
	block int64
	count int64
	place                   // of block; set for requests bound for the media only
	done  func(at sim.Time) // the request's Done
	latX  float64           // the request's LatencyX (<=1 = none)
}

type segment struct {
	start, end int64 // [start, end) block range; start==end means empty
	prev, next int32 // recency list: toward the LRU, toward the MRU; -1 at the ends
}

type blockRange struct{ start, end int64 }

// NewHDD builds an HDD from cfg, attached to eng.
func NewHDD(eng *sim.Engine, cfg HDDConfig) *HDD {
	if cfg.CapacityBlocks <= 0 || cfg.Heads <= 0 || cfg.Zones <= 0 || cfg.RPM <= 0 ||
		cfg.CacheSegments > math.MaxInt32 { // the recency links are int32
		panic("disk: invalid HDD config")
	}
	d := &HDD{
		eng:     eng,
		cfg:     cfg,
		revTime: sim.Time(int64(60) * int64(sim.Second) / int64(cfg.RPM)),
	}
	d.revTimeF = float64(d.revTime)
	d.perRev = fastdiv.New(int64(d.revTime))
	d.buildZones()
	d.calibrateSeek()
	// Recency starts in index order, so a fresh cache fills segment 0
	// first.
	d.segments = make([]segment, cfg.CacheSegments)
	for i := range d.segments {
		d.segments[i].prev, d.segments[i].next = int32(i-1), int32(i+1)
	}
	if n := len(d.segments); n > 0 {
		d.segments[n-1].next = -1
		d.segMRU = int32(n - 1)
	}
	d.finishFn = d.finished
	d.destageFn = d.destaged
	return d
}

// buildZones lays out cfg.Zones zones whose per-track density falls
// linearly from OuterBlocksPT to InnerBlocksPT and whose total capacity
// is exactly cfg.CapacityBlocks (the last zone absorbs rounding). A
// disk with fewer cylinders than cfg.Zones keeps the outer zones of
// that profile, one cylinder each, and ends where its capacity does.
func (d *HDD) buildZones() {
	cfg := &d.cfg
	// First pass: provisional equal-cylinder zones to estimate how many
	// cylinders realize the target capacity at the mean density.
	meanPT := float64(cfg.OuterBlocksPT+cfg.InnerBlocksPT) / 2
	cyls := int64(math.Ceil(float64(cfg.CapacityBlocks) / (meanPT * float64(cfg.Heads))))
	perZone := cyls / int64(cfg.Zones)
	if perZone == 0 {
		perZone = 1
	}
	d.zones = make([]zone, 0, cfg.Zones)
	var block, cyl int64
	for z := 0; z < cfg.Zones; z++ {
		frac := float64(z) / float64(cfg.Zones-1)
		if cfg.Zones == 1 {
			frac = 0
		}
		pt := int64(math.Round(float64(cfg.OuterBlocksPT) - frac*float64(cfg.OuterBlocksPT-cfg.InnerBlocksPT)))
		zn := zone{
			firstBlock: block,
			firstCyl:   cyl,
			cylinders:  perZone,
			blocksPT:   pt,
			blocksPCyl: pt * int64(cfg.Heads),
			perTrack:   fastdiv.New(pt),
			perCyl:     fastdiv.New(pt * int64(cfg.Heads)),
			blocksPTf:  float64(pt),
			perBlock:   sim.Time(d.revTimeF / float64(pt)),
		}
		// The zone that reaches the capacity is the last, whatever its
		// index: on a tiny disk the dense outer zones can use the blocks
		// up before cfg.Zones of them exist, and laying out the rest
		// would leave the final zone a negative cylinder count.
		last := z == cfg.Zones-1 || block+zn.cylinders*zn.blocksPCyl >= cfg.CapacityBlocks
		if last {
			// Size the last zone to cover the remaining capacity.
			remaining := cfg.CapacityBlocks - block
			zn.cylinders = (remaining + zn.blocksPCyl - 1) / zn.blocksPCyl
		}
		block += zn.cylinders * zn.blocksPCyl
		zn.endBlock = block
		d.zones = append(d.zones, zn)
		cyl += zn.cylinders
		if last {
			break
		}
	}
	d.totalCyls = cyl
}

// calibrateSeek solves seek(d) = TrackToTrack + b*sqrt(d) + c*d for b, c
// such that seek(totalCyls/3) = AvgSeek (mean seek distance of uniform
// random pairs is N/3) and seek(totalCyls-1) = FullSeek.
func (d *HDD) calibrateSeek() {
	cfg := &d.cfg
	n := float64(d.totalCyls)
	x1, y1 := n/3, float64(cfg.AvgSeek-cfg.TrackToTrack)
	x2, y2 := n-1, float64(cfg.FullSeek-cfg.TrackToTrack)
	// Solve [sqrt(x1) x1; sqrt(x2) x2] * [b c]' = [y1 y2]'.
	a11, a12 := math.Sqrt(x1), x1
	a21, a22 := math.Sqrt(x2), x2
	det := a11*a22 - a12*a21
	d.seekB = (y1*a22 - a12*y2) / det
	d.seekC = (a11*y2 - y1*a21) / det
}

// seekTime returns the arm movement time across dist cylinders.
func (d *HDD) seekTime(dist int64) sim.Time {
	if dist <= 0 {
		return 0
	}
	t := float64(d.cfg.TrackToTrack) + d.seekB*math.Sqrt(float64(dist)) + d.seekC*float64(dist)
	if t < float64(d.cfg.TrackToTrack) {
		t = float64(d.cfg.TrackToTrack)
	}
	return sim.Time(t)
}

// locate maps a block to its place: zone, cylinder, and position in the
// cylinder and on the track.
func (d *HDD) locate(block int64) place {
	// The first zone ending past block, by binary search.
	lo, hi := 0, len(d.zones)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if block < d.zones[m].endBlock {
			hi = m
		} else {
			lo = m + 1
		}
	}
	z := &d.zones[lo]
	// A cylinder is a whole number of tracks, so the position on the
	// track is that of the offset in the cylinder.
	cyl, inCyl := z.perCyl.DivMod(block - z.firstBlock)
	_, pos := z.perTrack.DivMod(inCyl)
	return place{zn: z, cyl: z.firstCyl + cyl, pos: pos, inCyl: inCyl}
}

// CapacityBlocks implements Device.
func (d *HDD) CapacityBlocks() int64 { return d.cfg.CapacityBlocks }

// Name implements Device.
func (d *HDD) Name() string { return d.cfg.Name }

// Stats implements Device.
func (d *HDD) Stats() *Stats { return &d.stats }

// QueueDepth reports requests pending or in service: stalled writes,
// queued requests and the one on the media.
func (d *HDD) QueueDepth() int {
	n := len(d.queue) + len(d.stalled)
	if d.busy {
		n++
	}
	return n
}

// Busy reports whether the device is currently servicing a request or
// destaging its write cache.
func (d *HDD) Busy() bool { return d.busy || d.destaging }

// JoinCensus implements CensusTaker. The HDD's busy state flips only at
// its own events, so it pushes each flip into the census's count.
func (d *HDD) JoinCensus(c *Census) {
	d.census = c
	if d.Busy() {
		c.pushed++
	}
}

// countBusy reports one idle<->busy flip to the census.
func (d *HDD) countBusy(delta int) {
	if c := d.census; c != nil {
		c.pushed += delta
	}
}

// Submit implements Device.
func (d *HDD) Submit(r *Request) {
	checkRange(r, d.cfg.CapacityBlocks, d.cfg.Name)
	if c := d.census; c != nil {
		c.sample(d.QueueDepth(), d.eng.Now())
	}

	if r.Reject {
		// A dead disk rejects at the controller: bus overhead, then the
		// completion. Requests queued before the failure still drain
		// normally.
		d.stats.Rejected++
		complete(d.eng, d.cfg.ControllerOver, r.Done)
		return
	}
	q := hddReq{op: r.Op, fail: r.Err, block: r.Block, count: r.Count, done: r.Done, latX: r.LatencyX}

	// A write the cache could never hold (or any write, with no cache)
	// goes to the media like a read: stalled, it would wait for room
	// that no destage can make.
	if q.op == OpWrite && q.count <= int64(d.cfg.WriteCacheBlocks) {
		// Write-back path: absorb into the cache if space allows.
		if d.dirty+q.count <= int64(d.cfg.WriteCacheBlocks) {
			d.absorbWrite(&q)
			return
		}
		// No space: the write stalls until destaging frees room.
		d.stalled = append(d.stalled, q)
		d.kick()
		return
	}

	q.place = d.locate(q.block)
	if !d.busy && !d.destaging && len(d.queue) == 0 {
		// Idle drive: the request is the whole queue, so LOOK's pick is
		// known — it reverses the sweep iff the request lies behind the
		// head — and service starts without queueing it.
		if d.sweepUp && q.cyl < d.curCyl || !d.sweepUp && q.cyl > d.curCyl {
			d.sweepUp = !d.sweepUp
		}
		d.serve(&q)
		return
	}
	d.queue = append(d.queue, q)
	d.kick()
}

// absorbWrite completes a write from the write-back cache after the
// controller overhead and records its blocks for later destage.
func (d *HDD) absorbWrite(r *hddReq) {
	over := d.cfg.ControllerOver
	if r.fail {
		// The write dies in the controller: no dirty data, no readable
		// segment, just overhead and an error completion.
		over = scaled(over, r.latX)
		d.stats.BusyTime += over
	} else {
		d.dirty += r.count
		d.addDirtyRange(r.block, r.block+r.count)
		// Freshly written data is also readable from the cache.
		d.installSegment(r.block, r.block+r.count)
	}
	d.stats.count(OpWrite, r.count, r.fail)
	complete(d.eng, over, r.done)
	d.kick()
}

// addDirtyRange records [start,end) for destaging, merging adjacent
// ranges so sequential writes destage as one arm operation.
func (d *HDD) addDirtyRange(start, end int64) {
	for i := range d.dirtyRanges {
		r := &d.dirtyRanges[i]
		if start <= r.end && end >= r.start { // overlap or adjacency
			if start < r.start {
				r.start = start
			}
			if end > r.end {
				r.end = end
			}
			return
		}
	}
	d.dirtyRanges = append(d.dirtyRanges, blockRange{start, end})
}

// kick starts servicing if the device is idle.
func (d *HDD) kick() {
	if d.busy || d.destaging {
		return
	}
	if len(d.queue) > 0 {
		d.startNext()
		return
	}
	if d.dirty > 0 && (len(d.stalled) > 0 || len(d.queue) == 0) {
		d.startDestage()
	}
}

// pickNext removes and returns the next request in LOOK order: the head
// sweeps across the platter servicing requests in cylinder order and
// reverses at the last request in each direction.
func (d *HDD) pickNext() hddReq {
	best := -1
	var bestCyl int64
	for pass := 0; pass < 2; pass++ {
		for i := range d.queue {
			cyl := d.queue[i].cyl
			if d.sweepUp && cyl < d.curCyl || !d.sweepUp && cyl > d.curCyl {
				continue
			}
			if best == -1 ||
				(d.sweepUp && cyl < bestCyl) || (!d.sweepUp && cyl > bestCyl) {
				best, bestCyl = i, cyl
			}
		}
		if best != -1 {
			break
		}
		d.sweepUp = !d.sweepUp // reverse at the end of the sweep
	}
	// Close the gap by copying down, whichever end it is at: reslicing
	// the head off (queue[1:]) would strand the backing array's front
	// and make every later append walk toward a reallocation.
	r := d.queue[best]
	last := len(d.queue) - 1
	copy(d.queue[best:], d.queue[best+1:])
	d.queue[last] = hddReq{} // drop the vacated copy's callback
	d.queue = d.queue[:last]
	return r
}

// startNext begins servicing one queued request.
func (d *HDD) startNext() {
	r := d.pickNext()
	d.serve(&r)
}

// serve puts r on the media (or answers it from the read cache).
func (d *HDD) serve(r *hddReq) {
	d.busy = true
	d.countBusy(+1)

	if r.fail {
		// Injected media error: the head still travels (seek, rotation,
		// transfer happen before the error is detected), but no data
		// moves — the cache is neither consulted nor filled.
		service := d.mediaTime(&r.place, r.block, r.count, r.op == OpWrite)
		d.finish(r, scaled(d.cfg.ControllerOver+service, r.latX))
		return
	}
	if r.op == OpRead && d.cacheCovers(r.block, r.block+r.count) {
		// Full cache hit: controller overhead only.
		d.stats.CacheHits++
		d.finish(r, scaled(d.cfg.ControllerOver, r.latX))
		return
	}
	if r.op == OpRead {
		d.stats.CacheMisses++
	}

	service := d.mediaTime(&r.place, r.block, r.count, r.op == OpWrite)
	if r.op == OpRead {
		// Read-ahead: the segment fills with the request plus trailing
		// blocks (time cost of read-ahead is hidden in idle rotation).
		end := r.block + int64(d.cfg.SegmentBlocks)
		if end > d.cfg.CapacityBlocks {
			end = d.cfg.CapacityBlocks
		}
		d.installSegment(r.block, end)
	}
	d.finish(r, scaled(d.cfg.ControllerOver+service, r.latX))
}

// scaled applies a request's injected latency multiplier to a service
// time.
func scaled(t sim.Time, latX float64) sim.Time {
	if latX > 1 {
		t = sim.Time(float64(t) * latX)
	}
	return t
}

// finish counts r and completes it after service time, then continues
// with the next queued operation. The pending callback lives in finDone
// (single-flight under the busy flag) and fires through the cached
// finishFn, so the media path schedules no closures.
func (d *HDD) finish(r *hddReq, service sim.Time) {
	d.stats.BusyTime += service
	d.stats.count(r.op, r.count, r.fail)
	d.finDone = r.done
	d.eng.After(service, d.finishFn)
}

// finished is the media-service completion event. The callback is
// copied out before it runs: it may submit more I/O, which (with busy
// already cleared) can start the next service and restamp finDone.
func (d *HDD) finished() {
	done := d.finDone
	d.finDone = nil
	d.busy = false
	d.countBusy(-1)
	if done != nil {
		done(d.eng.Now())
	}
	d.kick()
}

// mediaTime computes seek + rotational + transfer time for a contiguous
// media access starting at block, which lies at p, and updates the head
// position.
func (d *HDD) mediaTime(p *place, block, count int64, isWrite bool) sim.Time {
	zn := p.zn
	dist := p.cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	seek := d.seekTime(dist)
	if isWrite && seek > 0 {
		// Writes settle slightly longer than reads (datasheet: ~0.4 ms
		// extra on average); approximate with +12%.
		seek += seek / 8
	}

	// Rotational delay: where is the target sector when the seek ends?
	arrival := d.eng.Now() + seek
	_, phase := d.perRev.DivMod(int64(arrival))
	angleNow := float64(phase) / d.revTimeF
	angleTarget := float64(p.pos) / zn.blocksPTf
	wait := angleTarget - angleNow
	if wait < 0 {
		wait++
	}
	rot := sim.Time(wait * d.revTimeF)

	// Transfer: a full track per revolution within the zone; crossing
	// tracks adds head/cylinder switch time.
	transfer := sim.Time(count) * zn.perBlock
	tracksCrossed, _ := zn.perTrack.DivMod(p.pos + count - 1)
	transfer += sim.Time(tracksCrossed) * d.cfg.HeadSwitch

	// Head ends at the cylinder holding the last block: almost always
	// the one the access started in, and nearly always in its zone (a
	// zone is a whole number of cylinders).
	if last := block + count - 1; last < zn.endBlock {
		cyls, _ := zn.perCyl.DivMod(p.inCyl + count - 1)
		d.curCyl = p.cyl + cyls
	} else {
		d.curCyl = d.locate(last).cyl
	}
	return seek + rot + transfer
}

// startDestage flushes the largest dirty range to media in background.
func (d *HDD) startDestage() {
	if len(d.dirtyRanges) == 0 {
		// Overlapping writes merge into one range but count their blocks
		// twice, so the last range can drain with dirty still positive.
		// The cache is in fact empty: say so, and let in the writes that
		// were waiting for the phantom blocks — nothing else will.
		d.dirty = 0
		d.admitStalled()
		return
	}
	// Destage the largest range first: frees the most space per seek.
	best := 0
	for i, r := range d.dirtyRanges {
		if r.end-r.start > d.dirtyRanges[best].end-d.dirtyRanges[best].start {
			best = i
		}
	}
	r := d.dirtyRanges[best]
	d.dirtyRanges = append(d.dirtyRanges[:best], d.dirtyRanges[best+1:]...)
	d.destaging = true
	d.countBusy(+1)
	at := d.locate(r.start) // a destage has no request to carry its place
	service := d.mediaTime(&at, r.start, r.end-r.start, true)
	d.stats.BusyTime += service
	d.destageN = r.end - r.start
	d.eng.After(service, d.destageFn)
}

// destaged is the destage completion event (single-flight under the
// destaging flag, fired through the cached destageFn).
func (d *HDD) destaged() {
	d.destaging = false
	d.countBusy(-1)
	d.dirty -= d.destageN
	if d.dirty < 0 {
		d.dirty = 0
	}
	d.admitStalled()
	d.kick()
}

// admitStalled moves stalled writes whose blocks now fit into the
// write cache. The walk is not re-entrant: absorbing a write that drew
// an injected error adds no dirty range, so its kick can reach
// startDestage's empty-ranges branch and call back in here, with the
// write in hand still on the list. That call returns at once; the walk
// it interrupted has the rest of the list ahead of it and sees the
// space it freed.
func (d *HDD) admitStalled() {
	if d.admitting {
		return
	}
	d.admitting = true
	i := 0
	for ; i < len(d.stalled); i++ {
		r := d.stalled[i]
		if d.dirty+r.count > int64(d.cfg.WriteCacheBlocks) {
			break
		}
		d.absorbWrite(&r)
	}
	// Copy the rest down instead of reslicing the head off, for the
	// reason pickNext gives.
	n := copy(d.stalled, d.stalled[i:])
	clear(d.stalled[n:]) // drop the vacated copies' callbacks
	d.stalled = d.stalled[:n]
	d.admitting = false
}

// cacheCovers reports whether [start,end) is entirely inside one read
// segment.
func (d *HDD) cacheCovers(start, end int64) bool {
	for i := range d.segments {
		s := &d.segments[i]
		if start >= s.start && end <= s.end {
			d.touchSegment(int32(i))
			return true
		}
	}
	return false
}

// touchSegment makes segment i the most recently used.
func (d *HDD) touchSegment(i int32) {
	if i == d.segMRU {
		return
	}
	s := &d.segments[i]
	if s.prev >= 0 {
		d.segments[s.prev].next = s.next
	} else {
		d.segLRU = s.next
	}
	d.segments[s.next].prev = s.prev // i is not the MRU: it has a next
	d.segments[d.segMRU].next = i
	s.prev, s.next = d.segMRU, -1
	d.segMRU = i
}

// installSegment loads [start,end) into the least recently used
// segment.
func (d *HDD) installSegment(start, end int64) {
	if len(d.segments) == 0 {
		return
	}
	lru := d.segLRU
	d.segments[lru].start, d.segments[lru].end = start, end
	d.touchSegment(lru)
}
