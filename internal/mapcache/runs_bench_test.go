package mapcache

import "testing"

// benchTable builds a table of runs-of-64 mappings separated by
// gaps-of-64, cache side laid out contiguously — the shape the CRAID
// monitor produces for sequential workloads.
func benchTable(blocks int64) *Table {
	t := New()
	var cache int64
	for b := int64(0); b < blocks; b += 128 {
		for i := int64(0); i < 64; i++ {
			t.Insert(Mapping{Orig: b + i, Cache: cache})
			cache++
		}
	}
	return t
}

// BenchmarkLookupPerBlock is the seed's access pattern: one Lookup per
// block of a 256-block request.
func BenchmarkLookupPerBlock(b *testing.B) {
	t := benchTable(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i*256) % (1 << 20)
		for off := int64(0); off < 256; off++ {
			t.Lookup(base + off)
		}
	}
}

// BenchmarkLookupRun covers the same 256 blocks with run lookups, as the
// monitor's classify does: the same probes, a call per extent.
func BenchmarkLookupRun(b *testing.B) {
	t := benchTable(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i*256) % (1 << 20)
		for off := int64(0); off < 256; {
			_, n, _ := t.LookupRun(base+off, 256-off)
			off += n
		}
	}
}

// BenchmarkSetDirtyRun flips 64-block runs dirty and clean: a write hit
// on an extent.
func BenchmarkSetDirtyRun(b *testing.B) {
	t := benchTable(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (int64(i) * 128) % (1 << 20)
		t.SetDirtyRun(base, 64, i%2 == 0)
	}
}

// BenchmarkChurnRun measures remove+insert cycles of 64-block runs, the
// monitor's evict-then-allocate steady state.
func BenchmarkChurnRun(b *testing.B) {
	t := benchTable(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (int64(i) * 128) % (1 << 16)
		t.RemoveRun(base, 64)
		t.InsertRun(base, int64(i)*64, 64, false)
	}
}
