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
	var covered int64
	prev := int64(10)
	s.ForEachExtent(10, 200, func(e Extent) {
		if e.Logical != prev {
			t.Fatalf("extent at %d, want %d", e.Logical, prev)
		}
		last := s.Locate(e.Logical + e.Count - 1)
		if last.Disk != e.Data.Disk || last.Block != e.Data.Block+e.Count-1 {
			t.Fatalf("extent at %d not physically contiguous", e.Logical)
		}
		covered += e.Count
		prev += e.Count
	})
	if covered != 200 {
		t.Errorf("extents cover %d, want 200", covered)
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
// with a callback bound ahead of time allocates nothing — the walk's
// relocating callback is bound once at construction, not per call.
func TestSpreadLayoutWalkAllocFree(t *testing.T) {
	inner := NewRAID5(6, 3, 4096, 16)
	var l Layout = NewSpreadLayout(inner, inner.DataBlocks()/4)
	var blocks int64
	fn := func(e Extent) { blocks += e.Count }
	allocs := testing.AllocsPerRun(100, func() {
		l.ForEachExtent(10, 200, fn) // four granules
		l.ForEachExtent(1000, 8, fn)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per two walks, want 0", allocs)
	}
	if blocks != 101*208 {
		t.Fatalf("walks covered %d blocks, want %d", blocks, 101*208)
	}
}

// TestSpreadLayoutNestedWalk: the walk state lives in the layout, so a
// callback that walks the same layout again must find the outer walk's
// callback and address shift intact when it returns.
func TestSpreadLayoutNestedWalk(t *testing.T) {
	inner := NewRAID5(4, 4, 4096, 16)
	s := NewSpreadLayout(inner, inner.DataBlocks()/4)
	var flat []Extent
	s.ForEachExtent(10, 200, func(e Extent) { flat = append(flat, e) })
	var outer, nested []Extent
	s.ForEachExtent(10, 200, func(e Extent) {
		outer = append(outer, e)
		if len(outer) == 2 {
			s.ForEachExtent(500, 100, func(e Extent) { nested = append(nested, e) })
		}
	})
	if len(outer) != len(flat) {
		t.Fatalf("outer walk saw %d extents with a nested walk inside, %d without", len(outer), len(flat))
	}
	for i := range flat {
		if outer[i] != flat[i] {
			t.Fatalf("extent %d = %+v with a nested walk inside, %+v without", i, outer[i], flat[i])
		}
	}
	next := int64(500)
	for _, e := range nested {
		if e.Logical != next {
			t.Fatalf("nested extent at %d, want %d", e.Logical, next)
		}
		next += e.Count
	}
	if next != 600 {
		t.Fatalf("nested walk covered up to %d, want 600", next)
	}
}
