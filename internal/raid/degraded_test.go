package raid

import (
	"reflect"
	"sort"
	"testing"
)

// parityGroupsOf recovers each layout's parity-group membership with no
// knowledge of the rotation tables: scan every logical block, and put
// the disks its data and parity units land on in the same group
// (connected components over stripe co-membership). Parity rotation
// guarantees every pair of group disks eventually co-occurs, so the
// components converge to the true groups.
func parityGroupsOf(t *testing.T, l Layout) []int {
	t.Helper()
	comp := make([]int, l.Disks())
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	union := func(a, b int) { comp[find(a)] = find(b) }
	q, _ := l.(interface{ QParityOf(int64) (PBA, bool) })
	for b := int64(0); b < l.DataBlocks(); b++ {
		data := l.Locate(b)
		if p, ok := l.ParityOf(b); ok {
			union(data.Disk, p.Disk)
			if q != nil {
				if qp, ok := q.QParityOf(b); ok {
					union(data.Disk, qp.Disk)
				}
			}
		}
	}
	roots := make([]int, l.Disks())
	for i := range roots {
		roots[i] = find(i)
	}
	return roots
}

// expectPeers lists the disks sharing a parity group with disk, minus
// disk itself, sorted.
func expectPeers(groups []int, disk int) []int {
	var out []int
	for d, g := range groups {
		if d != disk && g == groups[disk] {
			out = append(out, d)
		}
	}
	return out
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	if len(c) == 0 {
		return nil
	}
	return c
}

// degradedLayouts enumerates every Redundant implementation under
// test, each small enough for an exhaustive per-block scan.
func degradedLayouts(t *testing.T) map[string]Redundant {
	t.Helper()
	spreadInner := NewRAID5(5, 5, 160, 4)
	return map[string]Redundant{
		"raid5":        NewRAID5(5, 5, 160, 4),
		"raid5-2grp":   NewRAID5(10, 5, 160, 4),
		"raid6":        NewRAID6(6, 6, 160, 4),
		"raid5plus":    NewRAID5Plus([]int{5, 5}, 160, 4),
		"spread-raid5": NewSpreadLayout(spreadInner, spreadInner.DataBlocks()),
	}
}

// TestRowPeersMatchesBruteForceReference pins RowPeers against the
// scan-derived reference on every redundant layout: the peers of any
// block are exactly the other members of its parity group, for every
// single block of the layout.
func TestRowPeersMatchesBruteForceReference(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		groups := parityGroupsOf(t, l)
		for b := int64(0); b < l.DataBlocks(); b++ {
			got := sortedCopy(l.RowPeers(b, nil))
			want := expectPeers(groups, l.Locate(b).Disk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RowPeers(%d) = %v, reference says %v", name, b, got, want)
			}
		}
	}
}

// TestRowPeersUniformRowInvariant pins the property the degraded read
// path relies on: every peer holds its unit of the row at the same
// device block range as the lost unit, i.e. all units of a stripe row
// live at identical device offsets.
func TestRowPeersUniformRowInvariant(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		if name == "spread-raid5" {
			// Spread layouts answer in inner-space rows; the invariant
			// holds for the translated address, checked via the inner
			// layout above.
			continue
		}
		unit := l.StripeUnitBlocks()
		// Collect where each (disk, deviceRow) pair is parity for
		// cross-checking data rows: every data unit's device row must
		// equal its parity unit's device row.
		for b := int64(0); b < l.DataBlocks(); b += unit {
			data := l.Locate(b)
			p, ok := l.ParityOf(b)
			if !ok {
				continue
			}
			if data.Block/unit != p.Block/unit {
				t.Fatalf("%s: block %d data row %d != parity row %d",
					name, b, data.Block/unit, p.Block/unit)
			}
		}
	}
}

// TestDiskPeersMatchesGroups pins DiskPeers against the same
// reference, for every disk.
func TestDiskPeersMatchesGroups(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		groups := parityGroupsOf(t, l)
		for d := 0; d < l.Disks(); d++ {
			got := sortedCopy(l.DiskPeers(d, nil))
			want := expectPeers(groups, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: DiskPeers(%d) = %v, reference says %v", name, d, got, want)
			}
		}
	}
}

// TestRowPeersAppendsToBuffer pins the append contract: existing
// buffer contents are preserved.
func TestRowPeersAppendsToBuffer(t *testing.T) {
	l := NewRAID5(5, 5, 160, 4)
	buf := []int{-7}
	out := l.RowPeers(0, buf)
	if out[0] != -7 || len(out) != 5 {
		t.Fatalf("RowPeers did not append: %v", out)
	}
}

func TestParityUnits(t *testing.T) {
	spreadInner := NewRAID5(5, 5, 160, 4)
	cases := []struct {
		name string
		l    Redundant
		want int
	}{
		{"raid5", NewRAID5(5, 5, 160, 4), 1},
		{"raid6", NewRAID6(6, 6, 160, 4), 2},
		{"raid5plus", NewRAID5Plus([]int{5, 5}, 160, 4), 1},
		{"spread-raid5", NewSpreadLayout(spreadInner, spreadInner.DataBlocks()), 1},
		{"spread-raid0", NewSpreadLayout(NewRAID0(4, 160, 4), 600), 0},
	}
	for _, tc := range cases {
		if got := tc.l.ParityUnits(); got != tc.want {
			t.Errorf("%s: ParityUnits() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSpreadRowPeersConsistentWithInner pins that spreading does not
// change geometry answers: a spread block's peers equal the inner
// layout's peers for the translated address — verified indirectly by
// checking the spread answer against the inner answer at the address
// Locate reports.
func TestSpreadRowPeersConsistentWithInner(t *testing.T) {
	inner := NewRAID5(5, 5, 160, 4)
	s := NewSpreadLayout(inner, inner.DataBlocks())
	for b := int64(0); b < s.DataBlocks(); b += 7 {
		got := sortedCopy(s.RowPeers(b, nil))
		// The spread block's physical location identifies its stripe:
		// find an inner logical block with the same location and ask
		// the inner layout. Locate is a bijection, so matching the
		// (disk, block) pair via the spread address is exact.
		want := sortedCopy(inner.RowPeers(s.spreadAddr(b), nil))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spread RowPeers(%d) = %v, inner says %v", b, got, want)
		}
	}
}

// TestRebuildWalkerCoversDisk pins that the walk enumerates exactly
// the device's rows, in order, with DiskPeers as the read set.
func TestRebuildWalkerCoversDisk(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		for _, d := range []int{0, l.Disks() - 1} {
			w := NewRebuildWalker(l, d)
			unit := l.StripeUnitBlocks()
			if w.Rows() != l.BlocksPerDisk()/unit || w.unit != unit {
				t.Fatalf("%s disk %d: walker shape rows=%d unit=%d", name, d, w.Rows(), w.unit)
			}
			if got, want := sortedCopy(w.peers), sortedCopy(l.DiskPeers(d, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s disk %d: walker peers %v, DiskPeers %v", name, d, got, want)
			}
			var next int64
			steps := int64(0)
			for {
				blk, n, peers, ok := w.Next()
				if !ok {
					break
				}
				if blk != next || n != unit || len(peers) != len(w.peers) {
					t.Fatalf("%s disk %d: step %d = (%d,+%d), want (%d,+%d)", name, d, steps, blk, n, next, unit)
				}
				next += n
				steps++
			}
			if next != l.BlocksPerDisk() || steps != w.Rows() {
				t.Fatalf("%s disk %d: walk covered %d of %d blocks in %d steps", name, d, next, l.BlocksPerDisk(), steps)
			}
		}
	}
}

func TestRebuildWalkerRejectsBadDisk(t *testing.T) {
	l := NewRAID5(5, 5, 160, 4)
	for _, bad := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRebuildWalker(%d) did not panic", bad)
				}
			}()
			NewRebuildWalker(l, bad)
		}()
	}
}

// TestRebuildWalkerNextRunMatchesNext pins the row-batched walk against
// the per-unit reference: for every batch size, NextRun must cover
// exactly the blocks repeated Next calls cover, in the same order, as
// contiguous runs whose row counts sum to Rows(), with the same peer
// set at every step.
func TestRebuildWalkerNextRunMatchesNext(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		for _, d := range []int{0, l.Disks() - 1} {
			// Per-unit reference walk.
			ref := NewRebuildWalker(l, d)
			var refBlocks []int64
			for {
				blk, n, _, ok := ref.Next()
				if !ok {
					break
				}
				for b := blk; b < blk+n; b++ {
					refBlocks = append(refBlocks, b)
				}
			}
			rows := NewRebuildWalker(l, d).Rows()
			for _, maxRows := range []int64{0, 1, 2, 3, 8, rows, rows + 5} {
				w := NewRebuildWalker(l, d)
				var gotBlocks []int64
				var gotRows int64
				for {
					blk, n, nrows, peers, ok := w.NextRun(maxRows)
					if !ok {
						break
					}
					if n != nrows*w.unit {
						t.Fatalf("%s disk %d maxRows %d: run count %d != rows %d * unit %d",
							name, d, maxRows, n, nrows, w.unit)
					}
					want := maxRows
					if want < 1 {
						want = 1
					}
					if nrows > want {
						t.Fatalf("%s disk %d: NextRun(%d) returned %d rows", name, d, maxRows, nrows)
					}
					if !reflect.DeepEqual(sortedCopy(peers), sortedCopy(w.peers)) {
						t.Fatalf("%s disk %d maxRows %d: run peers %v, walker peers %v",
							name, d, maxRows, peers, w.peers)
					}
					for b := blk; b < blk+n; b++ {
						gotBlocks = append(gotBlocks, b)
					}
					gotRows += nrows
				}
				if gotRows != rows {
					t.Fatalf("%s disk %d maxRows %d: covered %d rows, want %d",
						name, d, maxRows, gotRows, rows)
				}
				if !reflect.DeepEqual(gotBlocks, refBlocks) {
					t.Fatalf("%s disk %d maxRows %d: batched coverage diverges from per-unit walk",
						name, d, maxRows)
				}
			}
		}
	}
}

// TestRebuildWalkerNextRunAllocFree gates the batched walk at zero
// allocations per step: the peers slice is owned by the walker and a
// run is pure index arithmetic, so a full-device walk must not touch
// the heap.
func TestRebuildWalkerNextRunAllocFree(t *testing.T) {
	l := NewRAID5(5, 5, 160, 4)
	w := NewRebuildWalker(l, 2)
	allocs := testing.AllocsPerRun(100, func() {
		w.row = 0
		for {
			_, _, _, _, ok := w.NextRun(8)
			if !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("NextRun walk allocates %v per full pass, want 0", allocs)
	}
}

func benchRebuildLayout() Redundant { return NewRAID5(10, 10, 400000, 32) }

// BenchmarkRebuildWalkerNext measures the per-unit reference walk.
func BenchmarkRebuildWalkerNext(b *testing.B) {
	w := NewRebuildWalker(benchRebuildLayout(), 3)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		w.row = 0
		for {
			blk, n, _, ok := w.Next()
			if !ok {
				break
			}
			sink += blk + n
		}
	}
	_ = sink
}

// BenchmarkRebuildWalkerNextRun measures the row-batched walk at the
// core's rebuild batch size.
func BenchmarkRebuildWalkerNextRun(b *testing.B) {
	w := NewRebuildWalker(benchRebuildLayout(), 3)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		w.row = 0
		for {
			blk, n, _, _, ok := w.NextRun(8)
			if !ok {
				break
			}
			sink += blk + n
		}
	}
	_ = sink
}
