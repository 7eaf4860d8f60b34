package raid

import "testing"

// spreadFactor is the ratio of s's granule slots to dataset granules
// (1 = dense).
func spreadFactor(s *SpreadLayout) int64 {
	return s.slots / ((s.data + SpreadGranule - 1) / SpreadGranule)
}

func TestSpreadLayoutFullDatasetStillBijective(t *testing.T) {
	inner := NewRAID5(8, 4, 1024, 32)
	s := NewSpreadLayout(inner, inner.DataBlocks())
	if f := spreadFactor(s); f != 1 {
		t.Errorf("factor = %d for full dataset, want 1", f)
	}
	// Even dense, the shuffle must remain a bijection over granule
	// slots: every granule lands on a distinct aligned slot.
	seen := make(map[int64]bool)
	for b := int64(0); b < s.DataBlocks(); b += SpreadGranule {
		a := s.spreadAddr(b)
		if a%SpreadGranule != 0 || seen[a] || a >= inner.DataBlocks() {
			t.Fatalf("granule at %d: bad slot %d", b, a)
		}
		seen[a] = true
	}
}

func TestSpreadLayoutScatters(t *testing.T) {
	inner := NewRAID5(8, 4, 1<<16, 32)
	dataset := inner.DataBlocks() / 16
	s := NewSpreadLayout(inner, dataset)
	if f := spreadFactor(s); f < 8 {
		t.Fatalf("factor = %d, want >= 8 for a 16x larger inner space", f)
	}
	if s.DataBlocks() != dataset {
		t.Errorf("DataBlocks = %d, want %d", s.DataBlocks(), dataset)
	}
	// Within a granule placement is contiguous in the inner space.
	a0, a1 := s.spreadAddr(0), s.spreadAddr(SpreadGranule-1)
	if a1-a0 != SpreadGranule-1 {
		t.Errorf("within-granule spread: %d..%d not contiguous", a0, a1)
	}
	// Granules scatter: every granule gets a distinct, aligned slot,
	// and placements cover a wide range of the inner space.
	granules := dataset / SpreadGranule
	seen := make(map[int64]bool)
	var maxAddr int64
	for g := int64(0); g < granules; g++ {
		addr := s.spreadAddr(g * SpreadGranule)
		if addr%SpreadGranule != 0 {
			t.Fatalf("granule %d at unaligned addr %d", g, addr)
		}
		if seen[addr] {
			t.Fatalf("granule slot %d reused", addr)
		}
		seen[addr] = true
		if addr > maxAddr {
			maxAddr = addr
		}
	}
	if maxAddr < inner.DataBlocks()/2 {
		t.Errorf("granules cluster in the low half (max addr %d of %d)",
			maxAddr, inner.DataBlocks())
	}
}

func TestSpreadLayoutInjective(t *testing.T) {
	inner := NewRAID5(4, 4, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/4)
	seen := make(map[PBA]bool)
	for b := int64(0); b < s.DataBlocks(); b++ {
		p := s.Locate(b)
		if seen[p] {
			t.Fatalf("duplicate physical address for block %d", b)
		}
		seen[p] = true
	}
}

func TestSpreadLayoutExtentsCover(t *testing.T) {
	inner := NewRAID5(4, 4, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/4)
	start := int64(10) // each extent starts where the previous one's Count left off
	s.ForEachExtent(10, 200, func(e Extent) {
		first, last := s.Locate(start), s.Locate(start+e.Count-1)
		if first != e.Data || last.Disk != e.Data.Disk || last.Block != e.Data.Block+e.Count-1 {
			t.Fatalf("extent at %d not physically contiguous", start)
		}
		start += e.Count
	})
	if start != 210 {
		t.Errorf("extents cover %d, want 200", start-10)
	}
}

func TestSpreadLayoutParityAligns(t *testing.T) {
	inner := NewRAID5(6, 3, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/8)
	for b := int64(0); b < s.DataBlocks(); b += 7 {
		d := s.Locate(b)
		p, ok := s.ParityOf(b)
		if !ok || p.Disk == d.Disk {
			t.Fatalf("block %d: bad parity %+v vs data %+v", b, p, d)
		}
	}
}

func TestSpreadLayoutRejectsOversizedDataset(t *testing.T) {
	inner := NewRAID5(4, 4, 128, 16)
	defer func() {
		if recover() == nil {
			t.Error("oversized dataset did not panic")
		}
	}()
	NewSpreadLayout(inner, inner.DataBlocks()+1)
}

// TestSpreadLayoutWalkAllocFree: a walk through the Layout interface
// into a buffer the caller keeps allocates nothing — the spread walk
// relocates the inner layout's extents in place, with no callback to
// bind — once the buffer has grown to the longest walk.
func TestSpreadLayoutWalkAllocFree(t *testing.T) {
	inner := NewRAID5(6, 3, 4096, 16)
	var l Layout = NewSpreadLayout(inner, inner.DataBlocks()/4)
	var buf []Extent
	var blocks int64
	walk := func(block, count int64) {
		buf = l.AppendExtents(buf[:0], block, count)
		for _, e := range buf {
			blocks += e.Count
		}
	}
	walk(10, 200) // grow the buffer
	blocks = 0
	allocs := testing.AllocsPerRun(100, func() {
		walk(10, 200) // four granules
		walk(1000, 8)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per two walks, want 0", allocs)
	}
	if blocks != 101*208 {
		t.Fatalf("walks covered %d blocks, want %d", blocks, 101*208)
	}
}
