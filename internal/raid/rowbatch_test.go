package raid

import (
	"math/rand"
	"reflect"
	"testing"
)

// forEachUnitRun splits [block, block+count) at stripe-unit boundaries;
// within one unit data is contiguous on a single disk. It is the
// reference implementation of AppendExtents — one Locate/ParityOf chain
// per unit — that the property tests pin the row-at-a-time walk
// against. Layout has no Q query, so it leaves Q unset and the tests
// check that leg against QParityOf.
func forEachUnitRun(l Layout, block, count int64, fn func(Extent)) {
	checkBlock(block, count, l.DataBlocks())
	unit := l.StripeUnitBlocks()
	for count > 0 {
		inUnit := unit - block%unit
		if inUnit > count {
			inUnit = count
		}
		e := Extent{Data: l.Locate(block), Parity: PBA{Disk: -1}, Q: PBA{Disk: -1}, Count: inUnit}
		if p, ok := l.ParityOf(block); ok {
			e.Parity = p
		}
		fn(e)
		block += inUnit
		count -= inUnit
	}
}

// rowBatchLayouts is the sweep of geometries the extent walk is pinned
// on: the one striped layout at 0, 1 and 2 parities — single-group and
// multi-group, even and uneven group splits, with a borrowed (RAID-5)
// and a merged (RAID-6) trailing group, at stripe units 1, 3, 4, 8 and
// 32 — the paper's RAID-5+ aggregation, and spread decorations of each
// parity count and of a RAID-5+, at units small enough that runs cross
// rows, groups, sets and granules constantly. (A spread layout's unit
// divides the granule: otherwise the per-unit reference, which splits at
// dataset-address unit boundaries, is not one.)
func rowBatchLayouts() map[string]Layout {
	spread6 := NewRAID6(9, 5, 1024, 4) // 5,4
	return map[string]Layout{
		"raid0/4":          NewRAID0(4, 64, 4),
		"raid0/7":          NewRAID0(7, 96, 8),
		"raid0/3u1":        NewRAID0(3, 48, 1),
		"raid0/5u32":       NewRAID0(5, 1024, 32),
		"raid5/5g5":        NewRAID5(5, 5, 64, 4),
		"raid5/10g3":       NewRAID5(10, 3, 96, 4),
		"raid5/11g5":       NewRAID5(11, 5, 64, 4), // trailing 11→5,5,1 borrow
		"raid5/7g3u3":      NewRAID5(7, 3, 96, 3),  // 3,2,2
		"raid5/11g4u1":     NewRAID5(11, 4, 64, 1), // 4,4,3
		"raid5/12g5u32":    NewRAID5(12, 5, 1024, 32),
		"raid6/8g8":        NewRAID6(8, 8, 64, 4),
		"raid6/13g5":       NewRAID6(13, 5, 96, 4), // 5,5,3 → merged trailing group
		"raid6/10g4":       NewRAID6(10, 4, 64, 4), // 4,4,2 → 4,6
		"raid6/11g4u3":     NewRAID6(11, 4, 96, 3), // 4,4,3 → 4,7
		"raid6/9g5u1":      NewRAID6(9, 5, 64, 1),  // 5,4
		"raid6/9g5u32":     NewRAID6(9, 5, 1024, 32),
		"raid5plus":        NewRAID5Plus([]int{10, 3, 4, 5}, 64, 4),
		"raid5plus/unit":   NewRAID5Plus([]int{4, 2}, 32, 8),
		"raid5plus/u3":     NewRAID5Plus([]int{3, 5, 2}, 48, 3),
		"spread/raid0":     NewSpreadLayout(NewRAID0(4, 1024, 4), 1500),
		"spread/raid5":     NewSpreadLayout(NewRAID5(11, 5, 1024, 4), 3000),
		"spread/raid6":     NewSpreadLayout(spread6, spread6.DataBlocks()),
		"spread/raid5plus": NewSpreadLayout(NewRAID5Plus([]int{4, 3}, 1024, 4), 2000),
	}
}

// refQ answers where the Q parity of logical block b lives, from the
// scalar QParityOf path (itself pinned to the rotation law by
// TestRotationLUTMatchesReference) — the leg the Layout interface, and
// so forEachUnitRun, cannot ask for. Disk -1 where the level has none.
func refQ(l Layout, b int64) PBA {
	switch l := l.(type) {
	case *Striped:
		if q, ok := l.QParityOf(b); ok {
			return q
		}
	case *SpreadLayout:
		return refQ(l.inner, l.spreadAddr(b))
	}
	return PBA{Disk: -1} // RAID5Plus: every member set is RAID-5
}

// TestForEachExtentMatchesUnitRun is the walk's equivalence property:
// for every layout and random logical run, AppendExtents appends
// exactly the extents — same order, same fields — the per-unit
// reference walk forEachUnitRun emits, each carrying the Q leg
// QParityOf names for its first block, behind a prefix it leaves as it
// was; ForEachExtent hands fn the same extents; and a SpreadLayout's
// extents are its inner layout's for the spread address. An extent's
// logical start is the run's first block plus the Counts before it.
func TestForEachExtentMatchesUnitRun(t *testing.T) {
	sentinel := Extent{Data: PBA{Disk: 99, Block: -1}, Parity: PBA{Disk: 98}, Q: PBA{Disk: 97}, Count: -3}
	for name, l := range rowBatchLayouts() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			capacity := l.DataBlocks()
			buf := []Extent{sentinel}
			check := func(block, count int64) {
				buf = l.AppendExtents(buf[:1], block, count)
				if buf[0] != sentinel {
					t.Fatalf("run [%d,+%d): the prefix became %+v", block, count, buf[0])
				}
				got := append([]Extent(nil), buf[1:]...)
				var each []Extent
				l.ForEachExtent(block, count, func(e Extent) { each = append(each, e) })
				if !reflect.DeepEqual(each, got) {
					t.Fatalf("run [%d,+%d): ForEachExtent diverged from AppendExtents\n got %v\nwant %v",
						block, count, each, got)
				}
				starts := make([]int64, len(got))
				for i, at := 0, block; i < len(got); i++ {
					starts[i] = at
					at += got[i].Count
				}
				if s, ok := l.(*SpreadLayout); ok {
					for i, e := range got {
						addr := s.spreadAddr(starts[i])
						if in := s.inner.AppendExtents(nil, addr, e.Count); len(in) != 1 || in[0] != e {
							t.Fatalf("extent %+v: inner walk of [%d,+%d) is %v", e, addr, e.Count, in)
						}
					}
				}
				// Q is checked here, then cleared: the reference has none.
				for i := range got {
					if want := refQ(l, starts[i]); got[i].Q != want {
						t.Fatalf("extent %+v: Q leg should be %v", got[i], want)
					}
					got[i].Q = PBA{Disk: -1}
				}
				var want []Extent
				forEachUnitRun(l, block, count, func(e Extent) { want = append(want, e) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run [%d,+%d): walk diverged from the per-unit reference\n got %v\nwant %v",
						block, count, got, want)
				}
			}
			for trial := 0; trial < 2000; trial++ {
				count := min(1+rng.Int63n(3*l.StripeUnitBlocks()*int64(l.Disks())), capacity)
				check(rng.Int63n(capacity-count+1), count)
			}
			// Edges: whole capacity, first unit, last block.
			check(0, capacity)
			check(0, 1)
			check(capacity-1, 1)
		})
	}
}

// BenchmarkAppendExtents measures the walk into a reused buffer against
// the per-unit reference on whole-row runs — the shape write-backs and
// copy-ins issue constantly — for a grouped RAID-5 and (with its doubled
// rotation work) a grouped RAID-6, for RAID-0, and for the spread RAID-5
// every experiment's archive is; plus a one-extent run, the common
// case, walked both ways. Every line reports 0 allocs/op.
func BenchmarkAppendExtents(b *testing.B) {
	l0 := NewRAID0(50, 4096, 32)
	l5 := NewRAID5(50, 10, 4096, 32)
	l6 := NewRAID6(52, 13, 4096, 32)
	spread := NewSpreadLayout(l5, l5.DataBlocks()/4)
	var buf []Extent
	appendTo := func(l Layout) func(int64, int64, func(Extent)) {
		return func(blk, c int64, fn func(Extent)) {
			buf = l.AppendExtents(buf[:0], blk, c)
			fn(buf[0])
		}
	}
	unitRun := func(l Layout) func(int64, int64, func(Extent)) {
		return func(blk, c int64, fn func(Extent)) { forEachUnitRun(l, blk, c, fn) }
	}
	for _, bench := range []struct {
		name string
		run  int64
		walk func(int64, int64, func(Extent))
	}{
		{"raid0/row", 3 * 32 * 50, appendTo(l0)},
		{"raid0/unit", 3 * 32 * 50, unitRun(l0)},
		{"raid5/row", 3 * 32 * 45, appendTo(l5)},
		{"raid5/unit", 3 * 32 * 45, unitRun(l5)},
		{"raid5/small", 8, appendTo(l5)},
		{"raid5/foreach-small", 8, l5.ForEachExtent},
		{"raid6/row", 3 * 32 * 44, appendTo(l6)},
		{"raid6/unit", 3 * 32 * 44, unitRun(l6)},
		{"spread/row", 3 * 32 * 45, appendTo(spread)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var sink int64
			fn := func(e Extent) { sink += e.Data.Block }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.walk(int64(i%7)*13, bench.run, fn)
			}
			_ = sink
		})
	}
}

// TestRowBatchPanicsOnBadRun pins that the walks kept the reference's
// range checking.
func TestRowBatchPanicsOnBadRun(t *testing.T) {
	for name, l := range rowBatchLayouts() {
		for _, r := range [][2]int64{{-1, 1}, {0, 0}, {l.DataBlocks(), 1}, {0, l.DataBlocks() + 1}} {
			for walk, fn := range map[string]func(){
				"AppendExtents": func() { l.AppendExtents(nil, r[0], r[1]) },
				"ForEachExtent": func() { l.ForEachExtent(r[0], r[1], func(Extent) {}) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s of run [%d,+%d) did not panic", name, walk, r[0], r[1])
						}
					}()
					fn()
				}()
			}
		}
	}
}
