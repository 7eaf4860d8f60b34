package raid

import (
	"reflect"
	"sort"
	"testing"
)

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

// rowsOf recovers every block's stripe row with no knowledge of the
// rotation tables: the blocks one parity unit protects form a row, and
// the row's units are their data units, that parity unit and, on RAID-6,
// the Q unit. It maps each parity location to those units.
func rowsOf(l Layout) map[PBA][]PBA {
	q, _ := l.(interface{ QParityOf(int64) (PBA, bool) })
	rows := map[PBA][]PBA{}
	for b := int64(0); b < l.DataBlocks(); b++ {
		p, _ := l.ParityOf(b)
		if rows[p] == nil {
			rows[p] = []PBA{p}
			if q != nil {
				if qp, ok := q.QParityOf(b); ok {
					rows[p] = append(rows[p], qp)
				}
			}
		}
		rows[p] = append(rows[p], l.Locate(b))
	}
	return rows
}

// TestRowPeersMatchesBruteForceReference pins the one peer rule — the
// devices that rebuild a lost unit are its disk's group peers — against
// the scan-derived rows on every redundant layout: for every block b,
// DiskPeers(Locate(b).Disk) is exactly the other disks holding a unit of
// b's row.
func TestRowPeersMatchesBruteForceReference(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		rows := rowsOf(l)
		for b := int64(0); b < l.DataBlocks(); b++ {
			own := l.Locate(b)
			p, _ := l.ParityOf(b)
			var want []int
			for _, u := range rows[p] {
				if u.Disk != own.Disk {
					want = append(want, u.Disk)
				}
			}
			if got := sortedCopy(l.DiskPeers(own.Disk, nil)); !reflect.DeepEqual(got, sortedCopy(want)) {
				t.Fatalf("%s: DiskPeers(Locate(%d).Disk) = %v, b's row is on %v", name, b, got, want)
			}
		}
	}
}

// TestRowPeersUniformRowInvariant pins the property the degraded read,
// the reconstruct-write and the rebuild rely on when they read a lost
// unit's peers at its own device range: every unit of a block's row —
// each data unit, P and Q — lives at the block's device block, on a
// distinct disk.
func TestRowPeersUniformRowInvariant(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		rows := rowsOf(l)
		for b := int64(0); b < l.DataBlocks(); b++ {
			own := l.Locate(b)
			p, _ := l.ParityOf(b)
			disks := map[int]bool{}
			for _, u := range rows[p] {
				if u.Block != own.Block || disks[u.Disk] {
					t.Fatalf("%s: block %d at %v, its row holds %v", name, b, own, rows[p])
				}
				disks[u.Disk] = true
			}
		}
	}
}

// TestDiskPeersMatchesGroups pins DiskPeers(d), for every disk d,
// against the disks d shares a scan-derived row with.
func TestDiskPeersMatchesGroups(t *testing.T) {
	for name, l := range degradedLayouts(t) {
		shared := make([]map[int]bool, l.Disks()) // disk → the other disks of its rows
		for d := range shared {
			shared[d] = map[int]bool{}
		}
		for _, row := range rowsOf(l) {
			for _, u := range row {
				for _, v := range row {
					if u.Disk != v.Disk {
						shared[u.Disk][v.Disk] = true
					}
				}
			}
		}
		for d, peers := range shared {
			var want []int
			for p := range peers {
				want = append(want, p)
			}
			if got := sortedCopy(l.DiskPeers(d, nil)); !reflect.DeepEqual(got, sortedCopy(want)) {
				t.Fatalf("%s: DiskPeers(%d) = %v, d shares rows with %v", name, d, got, want)
			}
		}
	}
}

// TestRowPeersAppendsToBuffer pins the append contract: existing
// buffer contents are preserved.
func TestRowPeersAppendsToBuffer(t *testing.T) {
	l := NewRAID5(5, 5, 160, 4)
	buf := []int{-7}
	out := l.DiskPeers(l.Locate(0).Disk, buf)
	if out[0] != -7 || len(out) != 5 {
		t.Fatalf("DiskPeers did not append: %v", out)
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
// change geometry answers: a spread block lands where the inner layout
// puts its spread address, and its disk's peers are the inner layout's,
// in the same order.
func TestSpreadRowPeersConsistentWithInner(t *testing.T) {
	inner := NewRAID5(5, 5, 160, 4)
	s := NewSpreadLayout(inner, inner.DataBlocks())
	for b := int64(0); b < s.DataBlocks(); b += 7 {
		own := s.Locate(b)
		if in := inner.Locate(s.spreadAddr(b)); in != own {
			t.Fatalf("spread block %d at %v, inner puts its address at %v", b, own, in)
		}
		if got, want := s.DiskPeers(own.Disk, nil), inner.DiskPeers(own.Disk, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("spread DiskPeers(%d) = %v, inner says %v", own.Disk, got, want)
		}
	}
}
