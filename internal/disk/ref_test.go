package disk

import (
	"math"
	"sort"

	"craid/internal/sim"
)

// refHDD is the HDD as it was before a device I/O cost constant host
// work, kept as the test-only reference the way sim keeps refEngine: the
// segment cache stamps a clock and scans for the least recent, every
// media request is queued and picked by the two-pass LOOK scan even on
// an idle drive, the media access searches the zone table again, and all
// arithmetic is plain / and %. It shares with HDD what did not change —
// the zone layout and seek calibration (borrowed from a built HDD), the
// stats — and carries the oversized-write fix, so the
// two differ in how they compute, never in what.
type refHDD struct {
	eng   *sim.Engine
	cfg   HDDConfig
	stats Stats

	zones        []zone
	revTime      sim.Time
	seekB, seekC float64

	queue   []refReq
	busy    bool
	curCyl  int64
	sweepUp bool

	segments []refSegment
	segClock int64

	dirty       int64
	dirtyRanges []blockRange
	destaging   bool
	stalled     []refReq
	admitting   bool
}

type refReq struct {
	op    Op
	block int64
	count int64
	cyl   int64
	done  func(at sim.Time)
	fail  bool
	latX  float64
}

type refSegment struct {
	start, end int64
	lastUse    int64
}

func newRefHDD(eng *sim.Engine, cfg HDDConfig) *refHDD {
	geo := NewHDD(eng, cfg)
	return &refHDD{
		eng: eng, cfg: cfg,
		zones: geo.zones, revTime: geo.revTime, seekB: geo.seekB, seekC: geo.seekC,
		segments: make([]refSegment, cfg.CacheSegments),
	}
}

func (d *refHDD) CapacityBlocks() int64 { return d.cfg.CapacityBlocks }
func (d *refHDD) Name() string          { return d.cfg.Name }
func (d *refHDD) Stats() *Stats         { return &d.stats }

func (d *refHDD) QueueDepth() int {
	n := len(d.queue) + len(d.stalled)
	if d.busy {
		n++
	}
	return n
}

func (d *refHDD) seekTime(dist int64) sim.Time {
	if dist <= 0 {
		return 0
	}
	t := float64(d.cfg.TrackToTrack) + d.seekB*math.Sqrt(float64(dist)) + d.seekC*float64(dist)
	if t < float64(d.cfg.TrackToTrack) {
		t = float64(d.cfg.TrackToTrack)
	}
	return sim.Time(t)
}

func (d *refHDD) locate(block int64) (zn *zone, cyl, posOnTrack int64) {
	i := sort.Search(len(d.zones), func(i int) bool { return block < d.zones[i].endBlock })
	if i == len(d.zones) {
		i--
	}
	z := &d.zones[i]
	rel := block - z.firstBlock
	return z, z.firstCyl + rel/z.blocksPCyl, rel % z.blocksPT
}

func (d *refHDD) Submit(r *Request) {
	checkRange(r, d.cfg.CapacityBlocks, d.cfg.Name)
	if r.Reject {
		d.stats.Rejected++
		complete(d.eng, d.cfg.ControllerOver, r.Done)
		return
	}
	q := refReq{op: r.Op, block: r.Block, count: r.Count, done: r.Done, fail: r.Err, latX: r.LatencyX}
	// The fix: a write that can never fit takes the media queue.
	if q.op == OpWrite && d.cfg.WriteCacheBlocks > 0 && q.count <= int64(d.cfg.WriteCacheBlocks) {
		if d.dirty+q.count <= int64(d.cfg.WriteCacheBlocks) {
			d.absorbWrite(q)
			return
		}
		d.stalled = append(d.stalled, q)
		d.kick()
		return
	}
	_, q.cyl, _ = d.locate(q.block)
	d.queue = append(d.queue, q)
	d.kick()
}

func (d *refHDD) absorbWrite(r refReq) {
	if r.fail {
		over := scaled(d.cfg.ControllerOver, r.latX)
		d.stats.BusyTime += over
		d.stats.Errors++
		if r.done != nil {
			d.eng.AfterTimed(over, r.done)
		}
		d.kick()
		return
	}
	d.dirty += r.count
	d.addDirtyRange(r.block, r.block+r.count)
	d.installSegment(r.block, r.block+r.count)
	d.eng.After(d.cfg.ControllerOver, func() {
		d.stats.Writes++
		d.stats.BlocksWrite += r.count
		if r.done != nil {
			r.done(d.eng.Now())
		}
	})
	d.kick()
}

func (d *refHDD) addDirtyRange(start, end int64) {
	for i := range d.dirtyRanges {
		r := &d.dirtyRanges[i]
		if start <= r.end && end >= r.start {
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

func (d *refHDD) kick() {
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

func (d *refHDD) pickNext() refReq {
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
		d.sweepUp = !d.sweepUp
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return r
}

func (d *refHDD) startNext() {
	r := d.pickNext()
	d.busy = true
	if r.fail {
		service := d.mediaTime(r.block, r.count, r.op == OpWrite)
		d.finish(r, scaled(d.cfg.ControllerOver+service, r.latX))
		return
	}
	if r.op == OpRead && d.cacheCovers(r.block, r.block+r.count) {
		d.stats.CacheHits++
		d.finish(r, scaled(d.cfg.ControllerOver, r.latX))
		return
	}
	if r.op == OpRead {
		d.stats.CacheMisses++
	}
	service := d.mediaTime(r.block, r.count, r.op == OpWrite)
	if r.op == OpRead {
		end := r.block + int64(d.cfg.SegmentBlocks)
		if end > d.cfg.CapacityBlocks {
			end = d.cfg.CapacityBlocks
		}
		d.installSegment(r.block, end)
	}
	d.finish(r, scaled(d.cfg.ControllerOver+service, r.latX))
}

func (d *refHDD) finish(r refReq, service sim.Time) {
	d.stats.BusyTime += service
	d.eng.After(service, func() {
		d.busy = false
		if r.fail {
			d.stats.Errors++
		} else if r.op == OpRead {
			d.stats.Reads++
			d.stats.BlocksRead += r.count
		} else {
			d.stats.Writes++
			d.stats.BlocksWrite += r.count
		}
		if r.done != nil {
			r.done(d.eng.Now())
		}
		d.kick()
	})
}

func (d *refHDD) mediaTime(block, count int64, isWrite bool) sim.Time {
	zn, cyl, pos := d.locate(block)
	dist := cyl - d.curCyl
	if dist < 0 {
		dist = -dist
	}
	seek := d.seekTime(dist)
	if isWrite && seek > 0 {
		seek += seek / 8
	}
	arrival := d.eng.Now() + seek
	angleNow := float64(int64(arrival)%int64(d.revTime)) / float64(d.revTime)
	angleTarget := float64(pos) / float64(zn.blocksPT)
	wait := angleTarget - angleNow
	if wait < 0 {
		wait++
	}
	rot := sim.Time(wait * float64(d.revTime))
	perBlock := sim.Time(float64(d.revTime) / float64(zn.blocksPT))
	transfer := sim.Time(count) * perBlock
	tracksCrossed := (pos + count - 1) / zn.blocksPT
	transfer += sim.Time(tracksCrossed) * d.cfg.HeadSwitch
	_, d.curCyl, _ = d.locate(block + count - 1)
	return seek + rot + transfer
}

func (d *refHDD) startDestage() {
	if len(d.dirtyRanges) == 0 {
		d.dirty = 0
		d.admitStalled()
		return
	}
	best := 0
	for i, r := range d.dirtyRanges {
		if r.end-r.start > d.dirtyRanges[best].end-d.dirtyRanges[best].start {
			best = i
		}
	}
	r := d.dirtyRanges[best]
	d.dirtyRanges = append(d.dirtyRanges[:best], d.dirtyRanges[best+1:]...)
	d.destaging = true
	service := d.mediaTime(r.start, r.end-r.start, true)
	d.stats.BusyTime += service
	n := r.end - r.start
	d.eng.After(service, func() {
		d.destaging = false
		d.dirty -= n
		if d.dirty < 0 {
			d.dirty = 0
		}
		d.admitStalled()
		d.kick()
	})
}

func (d *refHDD) admitStalled() {
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
		d.absorbWrite(r)
	}
	d.stalled = append(d.stalled[:0], d.stalled[i:]...)
	d.admitting = false
}

func (d *refHDD) cacheCovers(start, end int64) bool {
	for i := range d.segments {
		s := &d.segments[i]
		if start >= s.start && end <= s.end {
			d.segClock++
			s.lastUse = d.segClock
			return true
		}
	}
	return false
}

func (d *refHDD) installSegment(start, end int64) {
	if len(d.segments) == 0 {
		return
	}
	lru := 0
	for i := range d.segments {
		if d.segments[i].lastUse < d.segments[lru].lastUse {
			lru = i
		}
	}
	d.segClock++
	d.segments[lru] = refSegment{start: start, end: end, lastUse: d.segClock}
}

// recency returns the segment indices from least to most recently used:
// by stamp, the never-used ones (stamp 0) lowest index first.
func (d *refHDD) recency() []int {
	order := make([]int, len(d.segments))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return d.segments[order[a]].lastUse < d.segments[order[b]].lastUse
	})
	return order
}
