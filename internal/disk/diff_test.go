package disk

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"craid/internal/fastdiv"
	"craid/internal/sim"
)

// hddModel is what the differential driver needs of HDD and refHDD.
type hddModel interface {
	Device
	QueueDepth() int
}

// seededVerdicts draws transient errors (1 in 16) and latency
// multipliers (1 in 8, between 1 and 4) from its own stream, as a fault
// runtime would: one draw per request a device accepts, so a caller
// draws only while it does not reject the device's requests.
type seededVerdicts struct{ rng *rand.Rand }

// draw sets r's verdict from the next draw.
func (s *seededVerdicts) draw(r *Request) {
	r.Err = s.rng.Intn(16) == 0
	r.LatencyX = 0
	if s.rng.Intn(8) == 0 {
		r.LatencyX = 1 + 3*s.rng.Float64()
	}
}

type completion struct {
	id     int
	failed bool // rejected or erring, as submitted
	at     sim.Time
}

// runScript drives d with total seeded requests in a closed loop whose
// window wanders between 1 and 8 outstanding, some resubmitting from the
// completion callback and some after a think time (so the drive also
// goes idle, destages, and is found idle by the next request), and the
// disk dying and coming back (its requests rejected meanwhile), and
// returns every completion in order. The script depends on the model
// only through the order of completions, which is what is compared.
func runScript(eng *sim.Engine, d hddModel, cfg HDDConfig, edges []int64, seed int64, total int) []completion {
	rng := rand.New(rand.NewSource(seed))
	verdicts := &seededVerdicts{rand.New(rand.NewSource(seed + 1))}
	log := make([]completion, 0, total)
	maxCount := 2 * int64(cfg.WriteCacheBlocks)
	if maxCount == 0 {
		maxCount = 256
	}
	submitted, outstanding, target := 0, 0, 1
	var hot int64 // start of the latest random read: a read-ahead segment, if it missed
	down := false // the disk is dead: its requests are rejected
	var submit func()
	completed := func(id int, failed bool, at sim.Time) {
		log = append(log, completion{id, failed, at})
		outstanding--
		if rng.Intn(64) == 0 {
			target = 1 + rng.Intn(8)
		}
		if down {
			down = rng.Intn(16) != 0
		} else {
			down = rng.Intn(1024) == 0
		}
		if rng.Intn(4) == 0 {
			eng.After(sim.Time(rng.Intn(5000))*sim.Microsecond, submit)
		} else {
			submit()
		}
	}
	submit = func() {
		for outstanding < target && submitted < total {
			id := submitted
			submitted++
			outstanding++
			count := int64(1 + rng.Intn(32))
			if rng.Intn(10) < 3 {
				count = min(1+rng.Int63n(maxCount), cfg.CapacityBlocks)
			}
			op := OpRead
			if rng.Intn(5) < 2 {
				op = OpWrite
			}
			var block int64
			switch where := rng.Intn(20); {
			case where < 8: // in or just past the read-ahead segment
				block = hot + rng.Int63n(int64(cfg.SegmentBlocks)+32)
			case where < 10: // astride a zone boundary
				block = edges[rng.Intn(len(edges))] - 32 + rng.Int63n(64)
			case where < 11: // up to the last block
				block = cfg.CapacityBlocks - count
			default:
				block = rng.Int63n(cfg.CapacityBlocks)
				if op == OpRead {
					hot = block
				}
			}
			block = max(0, min(block, cfg.CapacityBlocks-count))
			r := &Request{Op: op, Block: block, Count: count, Reject: down}
			if !down {
				verdicts.draw(r)
			}
			failed := r.Reject || r.Err
			r.Done = func(at sim.Time) { completed(id, failed, at) }
			d.Submit(r)
		}
	}
	submit()
	eng.Run()
	return log
}

// recency walks the segment list from the LRU end, checking the links.
func (d *HDD) recency() ([]int, error) {
	var order []int
	prev := int32(-1)
	for i := d.segLRU; len(d.segments) > 0 && i >= 0; prev, i = i, d.segments[i].next {
		if d.segments[i].prev != prev || len(order) == len(d.segments) {
			return nil, fmt.Errorf("segment %d: prev %d, reached from %d after %v", i, d.segments[i].prev, prev, order)
		}
		order = append(order, int(i))
	}
	if len(order) != len(d.segments) || (len(order) > 0 && int(d.segMRU) != order[len(order)-1]) {
		return nil, fmt.Errorf("list %v (MRU %d) over %d segments", order, d.segMRU, len(d.segments))
	}
	return order, nil
}

// TestHDDMatchesReference feeds HDD and refHDD the same scripts and
// wants the same completions at the same instants in the same order,
// then the same counters, head state and cache contents.
func TestHDDMatchesReference(t *testing.T) {
	cheetah := CheetahConfig("cheetah")
	cheetah.WriteCacheBlocks = 128 // small enough that writes stall
	oneSeg := smallHDDConfig("one-segment")
	oneSeg.CacheSegments, oneSeg.WriteCacheBlocks = 1, 64
	bare := smallHDDConfig("no-caches")
	bare.CacheSegments, bare.WriteCacheBlocks = 0, 0
	tiny := CheetahConfig("three-cylinders")
	tiny.CapacityBlocks = 1150

	for _, tc := range []struct {
		cfg   HDDConfig
		total int
	}{{cheetah, 100000}, {oneSeg, 20000}, {bare, 20000}, {tiny, 20000}} {
		cfg := tc.cfg
		t.Run(cfg.Name, func(t *testing.T) {
			engNew, engRef := sim.NewEngine(), sim.NewEngine()
			d, ref := NewHDD(engNew, cfg), newRefHDD(engRef, cfg)
			var edges []int64
			for _, z := range d.zones {
				edges = append(edges, z.endBlock)
			}
			got := runScript(engNew, d, cfg, edges, 42, tc.total)
			want := runScript(engRef, ref, cfg, edges, 42, tc.total)
			if len(got) != tc.total || len(want) != tc.total {
				t.Fatalf("%d and %d completions of %d requests", len(got), len(want), tc.total)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("completion %d: {id failed at} = %v, reference %v", i, got[i], want[i])
				}
			}
			if *d.Stats() != *ref.Stats() {
				t.Errorf("stats %+v, reference %+v", *d.Stats(), *ref.Stats())
			}
			if (d.stats.CacheHits == 0 && cfg.CacheSegments > 0) || d.stats.CacheMisses == 0 || d.stats.Errors == 0 || d.stats.Rejected == 0 {
				t.Errorf("script too tame: stats %+v", d.stats)
			}
			if d.curCyl != ref.curCyl || d.sweepUp != ref.sweepUp || d.dirty != ref.dirty {
				t.Errorf("head on %d sweeping up=%v with %d dirty, reference %d, %v, %d",
					d.curCyl, d.sweepUp, d.dirty, ref.curCyl, ref.sweepUp, ref.dirty)
			}
			if d.QueueDepth() != 0 || ref.QueueDepth() != 0 {
				t.Errorf("queue depths %d and %d after the drain", d.QueueDepth(), ref.QueueDepth())
			}
			for i := range ref.segments {
				if s, r := d.segments[i], ref.segments[i]; s.start != r.start || s.end != r.end {
					t.Errorf("segment %d holds [%d,%d), reference [%d,%d)", i, s.start, s.end, r.start, r.end)
				}
			}
			order, err := d.recency()
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.recency(); len(want) > 0 && !reflect.DeepEqual(order, want) {
				t.Errorf("recency %v, reference %v", order, want)
			}
		})
	}
}

// TestHDDOversizedWriteCompletes is the regression test for a write
// larger than the whole write cache: it stalled waiting for room no
// destage could make, and the engine drained with it still queued.
func TestHDDOversizedWriteCompletes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := CheetahConfig("hdd0")
	d := NewHDD(eng, cfg)
	var rts []sim.Time
	for _, count := range []int64{2000, int64(cfg.WriteCacheBlocks) + 1, int64(cfg.WriteCacheBlocks)} {
		rts = append(rts, runOne(t, eng, d, OpWrite, 5000, count))
		if d.QueueDepth() != 0 {
			t.Fatalf("queue depth %d after a %d-block write drained", d.QueueDepth(), count)
		}
	}
	if rts[0] <= cfg.ControllerOver || rts[1] <= cfg.ControllerOver {
		t.Errorf("writes past the cache took %v and %v: they go to the media", rts[0], rts[1])
	}
	if rts[2] != cfg.ControllerOver {
		t.Errorf("a write the size of the cache took %v, want it absorbed in %v", rts[2], cfg.ControllerOver)
	}
	if s := d.Stats(); s.Writes != 3 || s.BlocksWrite != 2000+2*int64(cfg.WriteCacheBlocks)+1 {
		t.Errorf("stats %+v, want 3 writes", *s)
	}
}

// TestSSDPagesClosedForm pins the per-channel page counts against the
// per-block loop they replaced, for every first channel, every count up
// to 4 rounds and one, 1 to 8 channels.
func TestSSDPagesClosedForm(t *testing.T) {
	for channels := int64(1); channels <= 8; channels++ {
		v := fastdiv.New(channels)
		for first := int64(0); first < channels; first++ {
			for count := int64(1); count <= 4*channels+1; count++ {
				block := 7*channels + first
				want := make([]int64, channels)
				for b := block; b < block+count; b++ {
					want[b%channels]++
				}
				each, extra := v.DivMod(count)
				_, f := v.DivMod(block)
				for ch := int64(0); ch < channels; ch++ {
					if got := each + extraPage(ch, f, extra, channels); got != want[ch] {
						t.Fatalf("%d channels, %d blocks from channel %d: channel %d gets %d pages, the loop says %v",
							channels, count, first, ch, got, want)
					}
				}
			}
		}
	}
}

// constructed keeps the devices TestDeviceConstructionAllocs builds
// reachable, so the compiler cannot keep them off the heap.
var constructed Device

// TestDeviceConstructionAllocs pins what building a device allocates:
// allocs_per_record on the timed benchmark workloads is mostly 50
// devices x cells, so this is where a regression would enter. The trap:
// a per-device slice beside the existing ones (separate recency links,
// separate zone constants) is one more allocation per device per cell,
// and two of them cost fig4-timed-hit 18% — new per-device state goes
// inside the HDD struct or the segments/zones allocations.
func TestDeviceConstructionAllocs(t *testing.T) {
	eng := sim.NewEngine()
	// The struct, zones, segments and the two cached method values.
	if n := testing.AllocsPerRun(100, func() { constructed = NewHDD(eng, CheetahConfig("hdd0")) }); n > 5 {
		t.Errorf("NewHDD allocates %v times, want <= 5", n)
	}
	// The struct and the channel clocks.
	if n := testing.AllocsPerRun(100, func() { constructed = NewSSD(eng, MSRSSDConfig("ssd0")) }); n > 2 {
		t.Errorf("NewSSD allocates %v times, want <= 2", n)
	}
}

// TestDeviceStatsMatchCompletions drives each model through a seeded
// closed loop — one request in 16 failing, the device dying and coming
// back mid-script — and wants the counters a model bumps where it
// decides an outcome to equal, once the engine drains, what the Done
// callbacks saw of the fates the requests were submitted with.
func TestDeviceStatsMatchCompletions(t *testing.T) {
	cheetah := CheetahConfig("hdd")
	cheetah.WriteCacheBlocks = 128 // on, and small enough that writes stall
	for _, tc := range []struct {
		name  string
		build func(*sim.Engine) Device
	}{
		{"hdd", func(eng *sim.Engine) Device { return NewHDD(eng, cheetah) }},
		{"ssd", func(eng *sim.Engine) Device { return NewSSD(eng, MSRSSDConfig("ssd")) }},
		{"null", func(eng *sim.Engine) Device { return NewNullDevice(eng, "null", 1<<30) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			d := tc.build(eng)
			verdicts := &seededVerdicts{rand.New(rand.NewSource(8))}
			rng := rand.New(rand.NewSource(7))
			var seen Stats
			const total = 20000
			submitted, outstanding := 0, 0
			down := false // the device is dead: its requests are rejected
			var submit func()
			completed := func() {
				outstanding--
				if down {
					down = rng.Intn(16) != 0
				} else {
					down = rng.Intn(512) == 0
				}
				if rng.Intn(4) == 0 {
					eng.After(sim.Time(rng.Intn(5000))*sim.Microsecond, submit)
				} else {
					submit()
				}
			}
			submit = func() {
				for outstanding < 8 && submitted < total {
					submitted++
					outstanding++
					op, count := OpRead, int64(1+rng.Intn(64))
					if rng.Intn(5) < 2 {
						op = OpWrite
					}
					r := &Request{Op: op, Block: rng.Int63n(d.CapacityBlocks() - count), Count: count, Reject: down}
					if !down {
						verdicts.draw(r)
					}
					rejected, errs := r.Reject, r.Err
					r.Done = func(sim.Time) {
						switch {
						case rejected:
							seen.Rejected++
						case errs:
							seen.Errors++
						case op == OpRead:
							seen.Reads++
							seen.BlocksRead += count
						default:
							seen.Writes++
							seen.BlocksWrite += count
						}
						completed()
					}
					d.Submit(r)
				}
			}
			submit()
			eng.Run()

			got := *d.Stats()
			got.BusyTime, got.CacheHits, got.CacheMisses = 0, 0, 0
			if got != seen {
				t.Errorf("counters %+v, callbacks saw %+v", got, seen)
			}
			if seen.Reads == 0 || seen.Writes == 0 || seen.Errors == 0 || seen.Rejected == 0 {
				t.Errorf("script too tame: callbacks saw %+v", seen)
			}
			if outstanding != 0 || submitted != total {
				t.Errorf("%d of %d requests submitted, %d still outstanding after the drain", submitted, total, outstanding)
			}
		})
	}
}

// TestDeviceAllocsIndependentOfOverlap: a request in flight costs a
// model no allocation of its own. A fresh HDD absorbing 64 contiguous
// writes at once allocates what one absorbing 4 does, and a fresh SSD
// serving 64 overlapping reads what one serving 4 does.
func TestDeviceAllocsIndependentOfOverlap(t *testing.T) {
	eng := sim.NewEngine()
	// Grow the engine's queue past 64 pending first, so what the bursts
	// below measure is the models'.
	noop := func() {}
	for i := 1; i <= 128; i++ {
		eng.After(sim.Time(i), noop)
	}
	eng.Run()
	r := &Request{Done: func(sim.Time) {}}
	burst := func(build func() Device, n int, op Op, block func(i int) int64) float64 {
		return testing.AllocsPerRun(20, func() {
			d := build()
			for i := 0; i < n; i++ {
				r.Op, r.Block, r.Count = op, block(i), 8
				d.Submit(r)
			}
			eng.Run()
		})
	}
	hdd := func() Device { return NewHDD(eng, CheetahConfig("hdd")) }
	ssd := func() Device { return NewSSD(eng, MSRSSDConfig("ssd")) }
	contiguous := func(i int) int64 { return int64(8 * i) }
	same := func(int) int64 { return 0 }
	if few, many := burst(hdd, 4, OpWrite, contiguous), burst(hdd, 64, OpWrite, contiguous); few != many {
		t.Errorf("HDD absorbing 4 writes allocates %v times, 64 writes %v times", few, many)
	}
	if few, many := burst(ssd, 4, OpRead, same), burst(ssd, 64, OpRead, same); few != many {
		t.Errorf("SSD serving 4 overlapping reads allocates %v times, 64 reads %v times", few, many)
	}
}
