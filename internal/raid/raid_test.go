package raid

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestRAID0RoundRobin(t *testing.T) {
	r := NewRAID0(4, 1000, 10)
	// Units rotate across disks; offsets advance every full row.
	cases := []struct {
		block int64
		want  PBA
	}{
		{0, PBA{0, 0}},
		{9, PBA{0, 9}},
		{10, PBA{1, 0}},
		{39, PBA{3, 9}},
		{40, PBA{0, 10}},
	}
	for _, c := range cases {
		if got := r.Locate(c.block); got != c.want {
			t.Errorf("Locate(%d) = %+v, want %+v", c.block, got, c.want)
		}
	}
	if _, ok := r.ParityOf(0); ok {
		t.Error("RAID0 reported parity")
	}
	if r.DataBlocks() != 4000 {
		t.Errorf("DataBlocks = %d, want 4000", r.DataBlocks())
	}
}

// TestRAID5MatchesPaperFigure3a verifies the layout against the
// concrete 8-disk example in the paper's Fig. 3a (parity groups of 3,
// stripe unit 1): row 0 is [0 1 p0 | 2 3 p1 | 4 p2], row 1 is
// [5 p3 6 | 7 p4 8 | p5 9].
func TestRAID5MatchesPaperFigure3a(t *testing.T) {
	r := NewRAID5(8, 3, 100, 1)
	type loc struct {
		disk  int
		block int64
	}
	wantData := map[int64]loc{
		0: {0, 0}, 1: {1, 0}, 2: {3, 0}, 3: {4, 0}, 4: {6, 0},
		5: {0, 1}, 6: {2, 1}, 7: {3, 1}, 8: {5, 1}, 9: {7, 1},
	}
	for b, w := range wantData {
		got := r.Locate(b)
		if got.Disk != w.disk || got.Block != w.block {
			t.Errorf("Locate(%d) = %+v, want disk %d block %d", b, got, w.disk, w.block)
		}
	}
	wantParity := map[int64]int{
		0: 2, 1: 2, // p0 on disk 2
		2: 5, 3: 5, // p1 on disk 5
		4: 7,       // p2 on disk 7
		5: 1, 6: 1, // p3 on disk 1
		7: 4, 8: 4, // p4 on disk 4
		9: 6, // p5 on disk 6
	}
	for b, wd := range wantParity {
		p, ok := r.ParityOf(b)
		if !ok || p.Disk != wd {
			t.Errorf("ParityOf(%d) = %+v ok=%v, want disk %d", b, p, ok, wd)
		}
	}
}

func TestRAID5Capacity(t *testing.T) {
	// 50 disks, groups of 10: 5 parity units per row, 45 data units.
	r := NewRAID5(50, 10, 32*100, 32)
	if got := r.dataPerRow; got != 45 {
		t.Errorf("data units per row = %d, want 45", got)
	}
	if got := r.DataBlocks(); got != 100*45*32 {
		t.Errorf("DataBlocks = %d, want %d", got, 100*45*32)
	}
}

func TestRAID5ParityNeverOnDataDisk(t *testing.T) {
	r := NewRAID5(8, 3, 1000, 4)
	for b := int64(0); b < r.DataBlocks(); b++ {
		d := r.Locate(b)
		p, ok := r.ParityOf(b)
		if !ok {
			t.Fatalf("no parity for block %d", b)
		}
		if p.Disk == d.Disk {
			t.Fatalf("block %d: parity and data on disk %d", b, d.Disk)
		}
		if p.Block != d.Block {
			t.Fatalf("block %d: parity offset %d != data offset %d (must align within row)",
				b, p.Block, d.Block)
		}
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	// Within one parity group, every disk must hold parity for an equal
	// share of rows (left-symmetric rotation balances parity I/O).
	r := NewRAID5(5, 5, 5*32, 32) // 5 rows exactly
	count := make(map[int]int)
	for row := int64(0); row < 5; row++ {
		b := row * r.dataPerRow * 32
		p, _ := r.ParityOf(b)
		count[p.Disk]++
	}
	for d := 0; d < 5; d++ {
		if count[d] != 1 {
			t.Errorf("disk %d holds parity for %d of 5 rows, want exactly 1", d, count[d])
		}
	}
}

func TestRAID5LocateInjective(t *testing.T) {
	r := NewRAID5(8, 3, 256, 4)
	seen := make(map[PBA]int64)
	for b := int64(0); b < r.DataBlocks(); b++ {
		p := r.Locate(b)
		if prev, dup := seen[p]; dup {
			t.Fatalf("blocks %d and %d both map to %+v", prev, b, p)
		}
		seen[p] = b
		if p.Block >= r.BlocksPerDisk() {
			t.Fatalf("block %d maps beyond per-disk budget: %+v", b, p)
		}
	}
}

func TestSplitGroupsNoLoneParity(t *testing.T) {
	cases := []struct {
		n, g int
		want []int
	}{
		{8, 3, []int{3, 3, 2}},
		{7, 3, []int{3, 2, 2}},
		{50, 10, []int{10, 10, 10, 10, 10}},
		{5, 10, []int{5}},
		{4, 2, []int{2, 2}},
	}
	for _, c := range cases {
		got := splitGroups(c.n, c.g)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("splitGroups(%d,%d) = %v, want %v", c.n, c.g, got, c.want)
		}
		sum := 0
		for _, s := range got {
			if s < 2 {
				t.Errorf("splitGroups(%d,%d) produced group of %d", c.n, c.g, s)
			}
			sum += s
		}
		if sum != c.n {
			t.Errorf("splitGroups(%d,%d) covers %d disks", c.n, c.g, sum)
		}
	}
}

func TestRAID5PlusPaperSchedule(t *testing.T) {
	sizes := PaperExpansionSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 50 {
		t.Fatalf("paper expansion schedule sums to %d disks, want 50", total)
	}
	r := NewRAID5Plus(sizes, 32*100, 32)
	if r.Disks() != 50 {
		t.Errorf("Disks = %d, want 50", r.Disks())
	}
	// Data units per row across all sets: 50 disks - 7 parity = 43.
	if want := int64(100 * 43 * 32); r.DataBlocks() != want {
		t.Errorf("DataBlocks = %d, want %d", r.DataBlocks(), want)
	}
}

// TestRAID5PlusConcatenates verifies the Fig. 3b structure: the first
// set owns the first span of logical blocks, the next set continues
// after it.
func TestRAID5PlusConcatenates(t *testing.T) {
	r := NewRAID5Plus([]int{5, 3}, 16, 4) // set0: 4 rows × 4 units; set1: 4 rows × 2 units
	set0Cap := int64(4 * 4 * 4)           // 64 blocks
	for b := int64(0); b < set0Cap; b++ {
		if d := r.Locate(b); d.Disk >= 5 {
			t.Fatalf("block %d (set 0 range) on disk %d", b, d.Disk)
		}
	}
	for b := set0Cap; b < r.DataBlocks(); b++ {
		if d := r.Locate(b); d.Disk < 5 {
			t.Fatalf("block %d (set 1 range) on disk %d", b, d.Disk)
		}
	}
}

func TestRAID5PlusDisjointSets(t *testing.T) {
	r := NewRAID5Plus([]int{5, 3}, 64, 4)
	// All addresses must stay inside the owning set's disk range, and
	// parity must live in the same set as its data.
	for b := int64(0); b < r.DataBlocks(); b++ {
		d := r.Locate(b)
		p, ok := r.ParityOf(b)
		if !ok {
			t.Fatalf("no parity for block %d", b)
		}
		inSet0 := d.Disk < 5
		pInSet0 := p.Disk < 5
		if inSet0 != pInSet0 {
			t.Fatalf("block %d: data disk %d and parity disk %d in different sets",
				b, d.Disk, p.Disk)
		}
	}
}

func TestRAID5PlusInjectiveAndUniform(t *testing.T) {
	r := NewRAID5Plus([]int{4, 3}, 128, 4)
	seen := make(map[PBA]bool)
	perDisk := make(map[int]int)
	for b := int64(0); b < r.DataBlocks(); b++ {
		p := r.Locate(b)
		if seen[p] {
			t.Fatalf("duplicate mapping for %+v", p)
		}
		seen[p] = true
		perDisk[p.Disk]++
	}
	// Every disk must receive data (interleaved cycles use all sets).
	for d := 0; d < r.Disks(); d++ {
		if perDisk[d] == 0 {
			t.Errorf("disk %d received no data blocks", d)
		}
	}
}

func TestForEachExtentCoversRun(t *testing.T) {
	layouts := []Layout{
		NewRAID0(4, 1024, 32),
		NewRAID5(8, 3, 1024, 32),
		NewRAID5Plus([]int{4, 3}, 1024, 32),
	}
	for li, l := range layouts {
		var covered int64
		prevEnd := int64(10) // starting block
		l.ForEachExtent(10, 100, func(e Extent) {
			if e.Logical != prevEnd {
				t.Errorf("layout %d: extent starts at %d, want %d (gap/overlap)",
					li, e.Logical, prevEnd)
			}
			if e.Count < 1 || e.Count > l.StripeUnitBlocks() {
				t.Errorf("layout %d: extent count %d outside (0, unit]", li, e.Count)
			}
			// Extent must be physically contiguous: last block of the
			// extent maps to Data.Block + Count - 1 on the same disk.
			lastPBA := l.Locate(e.Logical + e.Count - 1)
			if lastPBA.Disk != e.Data.Disk || lastPBA.Block != e.Data.Block+e.Count-1 {
				t.Errorf("layout %d: extent at %d not contiguous", li, e.Logical)
			}
			covered += e.Count
			prevEnd = e.Logical + e.Count
		})
		if covered != 100 {
			t.Errorf("layout %d: extents cover %d blocks, want 100", li, covered)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	r := NewRAID5(4, 4, 128, 4)
	for _, fn := range map[string]func(){
		"Locate(-1)":       func() { r.Locate(-1) },
		"Locate(capacity)": func() { r.Locate(r.DataBlocks()) },
		"ForEachExtent":    func() { r.ForEachExtent(r.DataBlocks()-1, 2, func(Extent) {}) },
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for random RAID-5 geometries, Locate is injective and
// parity aligns with data offsets, never sharing a disk.
func TestPropertyRAID5Invariants(t *testing.T) {
	f := func(nd, gs, rowsRaw uint8) bool {
		disks := int(nd%14) + 2 // 2..15
		gsize := int(gs%10) + 2 // 2..11
		rows := int64(rowsRaw%20) + 1
		unit := int64(4)
		r := NewRAID5(disks, gsize, rows*unit, unit)
		seen := make(map[PBA]bool)
		for b := int64(0); b < r.DataBlocks(); b++ {
			d := r.Locate(b)
			if seen[d] {
				return false
			}
			seen[d] = true
			p, ok := r.ParityOf(b)
			if !ok || p.Disk == d.Disk || p.Block != d.Block {
				return false
			}
			if d.Disk < 0 || d.Disk >= disks || p.Disk < 0 || p.Disk >= disks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: RAID5Plus capacity equals the sum over cycles of per-set
// data widths, and every block round-trips through its set correctly.
func TestPropertyRAID5PlusInvariants(t *testing.T) {
	f := func(a, b, c uint8) bool {
		sizes := []int{int(a%6) + 2, int(b%6) + 2, int(c%6) + 2}
		unit := int64(4)
		r := NewRAID5Plus(sizes, 16*unit, unit)
		seen := make(map[PBA]bool)
		for blk := int64(0); blk < r.DataBlocks(); blk++ {
			d := r.Locate(blk)
			if seen[d] || d.Disk < 0 || d.Disk >= r.Disks() {
				return false
			}
			seen[d] = true
			p, ok := r.ParityOf(blk)
			if !ok || p.Disk == d.Disk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRAID5Locate(b *testing.B) {
	r := NewRAID5(50, 10, 1<<20, 32)
	cap := r.DataBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Locate(int64(i) % cap)
	}
}

func BenchmarkRAID5PlusLocate(b *testing.B) {
	r := NewRAID5Plus(PaperExpansionSizes(), 1<<20, 32)
	cap := r.DataBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Locate(int64(i) % cap)
	}
}
