package raid

import (
	"testing"
	"testing/quick"
)

func TestRAID6Capacity(t *testing.T) {
	// 8 disks, one group: 6 data units per row.
	r := NewRAID6(8, 8, 100*4, 4)
	if got := r.dataPerRow; got != 6 {
		t.Errorf("data units per row = %d, want 6", got)
	}
	if got := r.DataBlocks(); got != 100*6*4 {
		t.Errorf("DataBlocks = %d, want %d", got, 100*6*4)
	}
}

func TestRAID6ParitiesDistinct(t *testing.T) {
	r := NewRAID6(8, 8, 64, 4)
	for b := int64(0); b < r.DataBlocks(); b++ {
		d := r.Locate(b)
		p, okP := r.ParityOf(b)
		q, okQ := r.QParityOf(b)
		if !okP || !okQ {
			t.Fatalf("block %d: missing parity", b)
		}
		if d.Disk == p.Disk || d.Disk == q.Disk || p.Disk == q.Disk {
			t.Fatalf("block %d: data/P/Q disks collide: %d/%d/%d", b, d.Disk, p.Disk, q.Disk)
		}
		if p.Block != d.Block || q.Block != d.Block {
			t.Fatalf("block %d: parity offsets misaligned", b)
		}
	}
}

func TestRAID6ParityRotates(t *testing.T) {
	r := NewRAID6(6, 6, 6*4, 4) // 6 rows
	pCount := make(map[int]int)
	qCount := make(map[int]int)
	for row := int64(0); row < 6; row++ {
		b := row * r.dataPerRow * 4
		p, _ := r.ParityOf(b)
		q, _ := r.QParityOf(b)
		pCount[p.Disk]++
		qCount[q.Disk]++
	}
	for d := 0; d < 6; d++ {
		if pCount[d] != 1 || qCount[d] != 1 {
			t.Errorf("disk %d: P on %d rows, Q on %d rows; want 1/1 (rotation)",
				d, pCount[d], qCount[d])
		}
	}
}

func TestRAID6LocateInjective(t *testing.T) {
	r := NewRAID6(9, 5, 64, 4) // groups merged: 5+4
	seen := make(map[PBA]bool)
	for b := int64(0); b < r.DataBlocks(); b++ {
		p := r.Locate(b)
		if seen[p] {
			t.Fatalf("duplicate mapping for block %d", b)
		}
		seen[p] = true
	}
}

func TestRAID6MergesShortGroups(t *testing.T) {
	// 10 disks with group size 4 → 4,4,2: trailing 2 merges → 4,6.
	r := NewRAID6(10, 4, 64, 4)
	total := 0
	for _, g := range r.groups {
		if g.size < 4 {
			t.Errorf("group of %d disks survived merging", g.size)
		}
		total += g.size
	}
	if total != 10 {
		t.Errorf("groups cover %d disks, want 10", total)
	}
}

func TestRAID6RejectsTooFewDisks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3-disk RAID6 did not panic")
		}
	}()
	NewRAID6(3, 3, 64, 4)
}

// Property: RAID-6 invariants over random geometries.
func TestPropertyRAID6Invariants(t *testing.T) {
	f := func(nd, gs, rowsRaw uint8) bool {
		disks := int(nd%12) + 4 // 4..15
		gsize := int(gs%8) + 4  // 4..11
		rows := int64(rowsRaw%10) + 1
		r := NewRAID6(disks, gsize, rows*4, 4)
		seen := make(map[PBA]bool)
		for b := int64(0); b < r.DataBlocks(); b++ {
			d := r.Locate(b)
			if seen[d] || d.Disk < 0 || d.Disk >= disks {
				return false
			}
			seen[d] = true
			p, _ := r.ParityOf(b)
			q, _ := r.QParityOf(b)
			if d.Disk == p.Disk || d.Disk == q.Disk || p.Disk == q.Disk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
