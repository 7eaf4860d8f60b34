package raid

import (
	"math/rand"
	"reflect"
	"testing"
)

// rowBatchLayouts is the sweep of geometries the row-batched
// ForEachExtent walk is pinned on: the one striped layout at 0, 1 and 2
// parities — single-group and multi-group, with a borrowed (RAID-5) and
// a merged (RAID-6) trailing group — the paper's RAID-5+ aggregation,
// and spread decorations of each parity count, at units small enough
// that runs cross rows, groups, sets and granules constantly.
func rowBatchLayouts() map[string]Layout {
	spread6 := NewRAID6(9, 5, 1024, 4) // 5,4
	return map[string]Layout{
		"raid0/4":        NewRAID0(4, 64, 4),
		"raid0/7":        NewRAID0(7, 96, 8),
		"raid5/5g5":      NewRAID5(5, 5, 64, 4),
		"raid5/10g3":     NewRAID5(10, 3, 96, 4),
		"raid5/11g5":     NewRAID5(11, 5, 64, 4), // trailing 11→5,5,1 borrow
		"raid6/8g8":      NewRAID6(8, 8, 64, 4),
		"raid6/13g5":     NewRAID6(13, 5, 96, 4), // 5,5,3 → merged trailing group
		"raid6/10g4":     NewRAID6(10, 4, 64, 4), // 4,4,2 → 4,6
		"raid5plus":      NewRAID5Plus([]int{10, 3, 4, 5}, 64, 4),
		"raid5plus/unit": NewRAID5Plus([]int{4, 2}, 32, 8),
		"spread/raid0":   NewSpreadLayout(NewRAID0(4, 1024, 4), 1500),
		"spread/raid5":   NewSpreadLayout(NewRAID5(11, 5, 1024, 4), 3000),
		"spread/raid6":   NewSpreadLayout(spread6, spread6.DataBlocks()),
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

// TestForEachExtentMatchesUnitRun is the row-batching equivalence
// property: for every layout and random logical run, the row-batched
// ForEachExtent emits exactly the extents — same order, same fields —
// as the per-unit reference walk forEachUnitRun, each carrying the Q
// leg QParityOf names for its first block.
func TestForEachExtentMatchesUnitRun(t *testing.T) {
	for name, l := range rowBatchLayouts() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			capacity := l.DataBlocks()
			collect := func(walk func(int64, int64, func(Extent)), block, count int64) []Extent {
				var out []Extent
				walk(block, count, func(e Extent) { out = append(out, e) })
				return out
			}
			// walkQ is ForEachExtent with every extent's Q leg checked and
			// then cleared: the reference walk has none to compare.
			walkQ := func(block, count int64, fn func(Extent)) {
				l.ForEachExtent(block, count, func(e Extent) {
					if want := refQ(l, e.Logical); e.Q != want {
						t.Fatalf("extent %+v: Q leg should be %v", e, want)
					}
					e.Q = PBA{Disk: -1}
					fn(e)
				})
			}
			for trial := 0; trial < 2000; trial++ {
				count := 1 + rng.Int63n(3*l.StripeUnitBlocks()*int64(l.Disks()))
				if count > capacity {
					count = capacity
				}
				block := rng.Int63n(capacity - count + 1)
				got := collect(walkQ, block, count)
				want := collect(func(b, c int64, fn func(Extent)) {
					forEachUnitRun(l, b, c, fn)
				}, block, count)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run [%d,+%d): row-batched walk diverged\n got %v\nwant %v",
						block, count, got, want)
				}
			}
			// Edges: whole capacity, first unit, last block.
			for _, r := range [][2]int64{{0, capacity}, {0, 1}, {capacity - 1, 1}} {
				got := collect(walkQ, r[0], r[1])
				want := collect(func(b, c int64, fn func(Extent)) {
					forEachUnitRun(l, b, c, fn)
				}, r[0], r[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run [%d,+%d): row-batched walk diverged at edge", r[0], r[1])
				}
			}
		})
	}
}

// BenchmarkForEachExtent measures the row-batched walk against the
// per-unit reference on whole-row runs — the shape flushWritebacks and
// the copy-in path issue constantly — for a grouped RAID-5 and (with
// its doubled rotation work) a grouped RAID-6, and for RAID-0.
func BenchmarkForEachExtent(b *testing.B) {
	l0 := NewRAID0(50, 4096, 32)
	l5 := NewRAID5(50, 10, 4096, 32)
	l6 := NewRAID6(52, 13, 4096, 32)
	for _, bench := range []struct {
		name string
		run  int64
		walk func(int64, int64, func(Extent))
	}{
		{"raid0/row", 3 * 32 * 50, l0.ForEachExtent},
		{"raid0/unit", 3 * 32 * 50, func(blk, c int64, fn func(Extent)) { forEachUnitRun(l0, blk, c, fn) }},
		{"raid5/row", 3 * 32 * 45, l5.ForEachExtent},
		{"raid5/unit", 3 * 32 * 45, func(blk, c int64, fn func(Extent)) { forEachUnitRun(l5, blk, c, fn) }},
		{"raid6/row", 3 * 32 * 44, l6.ForEachExtent},
		{"raid6/unit", 3 * 32 * 44, func(blk, c int64, fn func(Extent)) { forEachUnitRun(l6, blk, c, fn) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				bench.walk(int64(i%7)*13, bench.run, func(e Extent) { sink += e.Data.Block })
			}
			_ = sink
		})
	}
}

// TestRowBatchPanicsOnBadRun pins that the row-batched walks kept the
// reference's range checking.
func TestRowBatchPanicsOnBadRun(t *testing.T) {
	for name, l := range rowBatchLayouts() {
		for _, r := range [][2]int64{{-1, 1}, {0, 0}, {l.DataBlocks(), 1}, {0, l.DataBlocks() + 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: run [%d,+%d) did not panic", name, r[0], r[1])
					}
				}()
				l.ForEachExtent(r[0], r[1], func(Extent) {})
			}()
		}
	}
}
