package mapcache

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTable(t *testing.T) {
	tb := New()
	if tb.Len() != 0 {
		t.Errorf("Len = %d, want 0", tb.Len())
	}
	if _, ok := tb.Lookup(42); ok {
		t.Error("Lookup on empty table returned ok")
	}
	if _, ok := tb.Remove(42); ok {
		t.Error("Remove on empty table returned true")
	}
	if tb.SetDirty(42, true) {
		t.Error("SetDirty on empty table returned true")
	}
}

func TestInsertLookup(t *testing.T) {
	tb := New()
	tb.Insert(Mapping{Orig: 100, Cache: 5})
	tb.Insert(Mapping{Orig: 50, Cache: 6, Dirty: true})
	tb.Insert(Mapping{Orig: 150, Cache: 7})
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	m, ok := tb.Lookup(50)
	if !ok || m.Cache != 6 || !m.Dirty {
		t.Errorf("Lookup(50) = %+v ok=%v", m, ok)
	}
	m, ok = tb.Lookup(100)
	if !ok || m.Cache != 5 || m.Dirty {
		t.Errorf("Lookup(100) = %+v ok=%v", m, ok)
	}
}

func TestInsertReplaces(t *testing.T) {
	tb := New()
	tb.Insert(Mapping{Orig: 1, Cache: 10})
	tb.Insert(Mapping{Orig: 1, Cache: 20, Dirty: true})
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", tb.Len())
	}
	m, _ := tb.Lookup(1)
	if m.Cache != 20 || !m.Dirty {
		t.Errorf("Lookup(1) = %+v, want replaced entry", m)
	}
}

func TestRemove(t *testing.T) {
	tb := New()
	for i := int64(0); i < 20; i++ {
		tb.Insert(Mapping{Orig: i, Cache: i * 2})
	}
	for _, k := range []int64{0, 10, 19, 5} {
		// 5 and 10 have two children: the returned mapping must be the
		// removed one, not the successor that takes over its node.
		if m, ok := tb.Remove(k); !ok || m != (Mapping{Orig: k, Cache: k * 2}) {
			t.Errorf("Remove(%d) = %+v, %v", k, m, ok)
		}
		if _, ok := tb.Lookup(k); ok {
			t.Errorf("Lookup(%d) after remove = ok", k)
		}
	}
	if tb.Len() != 16 {
		t.Errorf("Len = %d, want 16", tb.Len())
	}
}

func TestSetDirty(t *testing.T) {
	tb := New()
	tb.Insert(Mapping{Orig: 1, Cache: 10})
	if !tb.SetDirty(1, true) {
		t.Fatal("SetDirty(1) = false")
	}
	if m, _ := tb.Lookup(1); !m.Dirty {
		t.Error("entry not dirty after SetDirty(true)")
	}
	tb.SetDirty(1, false)
	if m, _ := tb.Lookup(1); m.Dirty {
		t.Error("entry dirty after SetDirty(false)")
	}
}

func TestWalkOrdered(t *testing.T) {
	tb := New()
	rng := rand.New(rand.NewSource(1))
	for _, k := range rng.Perm(500) {
		tb.Insert(Mapping{Orig: int64(k), Cache: int64(k) + 1000})
	}
	var got []int64
	tb.Walk(func(m Mapping) bool {
		got = append(got, m.Orig)
		return true
	})
	if len(got) != 500 {
		t.Fatalf("walked %d entries, want 500", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("Walk not in ascending order")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tb := New()
	for i := int64(0); i < 10; i++ {
		tb.Insert(Mapping{Orig: i})
	}
	n := 0
	tb.Walk(func(Mapping) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d entries after early stop, want 3", n)
	}
}

func TestDirtyMappings(t *testing.T) {
	tb := New()
	for i := int64(0); i < 10; i++ {
		tb.Insert(Mapping{Orig: i, Cache: i, Dirty: i%3 == 0})
	}
	dirty := tb.DirtyMappings()
	if len(dirty) != 4 { // 0,3,6,9
		t.Fatalf("DirtyMappings returned %d entries, want 4", len(dirty))
	}
	for _, m := range dirty {
		if m.Orig%3 != 0 {
			t.Errorf("clean entry %d in dirty list", m.Orig)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	// Paper §4.2: ~0.58% of the cache partition size; with 4 KiB blocks
	// that is ≈ 16.1 bytes per entry (2×4B LBA + 1 bit + 8B pointer).
	tb := New()
	const n = 100000
	for i := int64(0); i < n; i++ {
		tb.Insert(Mapping{Orig: i, Cache: i})
	}
	perEntry := float64(tb.Bytes()) / n
	if perEntry < 16 || perEntry > 17 {
		t.Errorf("per-entry accounting = %.2f bytes, want ~16.1", perEntry)
	}
	// Fraction of the represented partition: entries × 4 KiB blocks.
	frac := float64(tb.Bytes()) / float64(n*4096)
	if frac < 0.0035 || frac > 0.0060 {
		t.Errorf("memory fraction = %.4f of partition, want ≈ 0.0039 (<0.58%%)", frac)
	}
}

func TestClear(t *testing.T) {
	tb := New()
	for i := int64(0); i < 100; i++ {
		tb.Insert(Mapping{Orig: i})
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Errorf("Len = %d after Clear", tb.Len())
	}
	tb.Insert(Mapping{Orig: 1, Cache: 2})
	if m, ok := tb.Lookup(1); !ok || m.Cache != 2 {
		t.Error("table unusable after Clear")
	}
}

// Property: the table behaves exactly like a map reference model.
func TestPropertyMatchesMapModel(t *testing.T) {
	f := func(ops []int16) bool {
		tb := New()
		model := make(map[int64]Mapping)
		for i, raw := range ops {
			k := int64(raw % 128)
			switch i % 4 {
			case 0, 1:
				m := Mapping{Orig: k, Cache: int64(i), Dirty: i%2 == 0}
				tb.Insert(m)
				model[k] = m
			case 2:
				want, mapped := model[k]
				delete(model, k)
				if got, ok := tb.Remove(k); ok != mapped || got != want {
					return false
				}
			case 3:
				if _, ok := model[k]; ok {
					m := model[k]
					m.Dirty = !m.Dirty
					model[k] = m
					tb.SetDirty(k, m.Dirty)
				}
			}
		}
		if tb.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := tb.Lookup(k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecoverReplaysDirtyState(t *testing.T) {
	var buf bytes.Buffer
	tb := New()
	tb.SetLog(&buf)

	tb.Insert(Mapping{Orig: 1, Cache: 11, Dirty: true})
	tb.Insert(Mapping{Orig: 2, Cache: 12, Dirty: true})
	tb.Insert(Mapping{Orig: 3, Cache: 13}) // clean: not logged
	tb.SetDirty(3, true)                   // now logged
	tb.SetDirty(2, false)                  // written back
	tb.Remove(1)                           // evicted

	got, err := Recover(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Only 3 should remain dirty.
	if len(got) != 1 || got[0].Orig != 3 || got[0].Cache != 13 || !got[0].Dirty {
		t.Errorf("Recover = %+v, want [{3 13 true}]", got)
	}
}

func TestRecoverToleratesTornRecord(t *testing.T) {
	var buf bytes.Buffer
	tb := New()
	tb.SetLog(&buf)
	tb.Insert(Mapping{Orig: 5, Cache: 50, Dirty: true})
	tb.Insert(Mapping{Orig: 6, Cache: 60, Dirty: true})
	// Simulate a crash mid-append: truncate the last record.
	torn := buf.Bytes()[:buf.Len()-7]
	got, err := Recover(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Orig != 5 {
		t.Errorf("Recover after torn write = %+v, want entry 5 only", got)
	}
}

func TestRecoverRejectsCorruptKind(t *testing.T) {
	rec := make([]byte, LogRecordSize)
	rec[0] = 99
	if _, err := Recover(bytes.NewReader(rec)); err == nil {
		t.Error("corrupt record kind not rejected")
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	got, err := Recover(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Recover(empty) = %+v, want none", got)
	}
}

// Property: Recover(log) always equals the table's live dirty set, for
// arbitrary operation sequences.
func TestPropertyLogMatchesDirtySet(t *testing.T) {
	f := func(ops []uint16) bool {
		var buf bytes.Buffer
		tb := New()
		tb.SetLog(&buf)
		for i, raw := range ops {
			k := int64(raw % 64)
			switch i % 5 {
			case 0, 1:
				tb.Insert(Mapping{Orig: k, Cache: k + 1000, Dirty: i%2 == 0})
			case 2:
				tb.SetDirty(k, true)
			case 3:
				tb.SetDirty(k, false)
			case 4:
				tb.Remove(k)
			}
		}
		want := tb.DirtyMappings()
		got, err := Recover(&buf)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Orig != want[i].Orig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := New()
	const n = 1 << 18
	for i := int64(0); i < n; i++ {
		tb.Insert(Mapping{Orig: i * 7, Cache: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(int64(i%n) * 7)
	}
}

func BenchmarkTableInsertRemove(b *testing.B) {
	tb := New()
	for i := 0; i < b.N; i++ {
		k := int64(i % (1 << 16))
		tb.Insert(Mapping{Orig: k, Cache: k})
		if i%2 == 1 {
			tb.Remove(k)
		}
	}
}

// TestPropertyIsDirtyMatchesLookup drives randomized operation streams
// — point and run inserts/removes/dirty flips, clears, log-attached
// and not — through a table and pins IsDirty equal to the Lookup-based
// definition at every step.
func TestPropertyIsDirtyMatchesLookup(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New()
		if seed%2 == 0 {
			tb.SetLog(&bytes.Buffer{})
		}
		const span = 1024
		check := func(step int) {
			for k := int64(0); k < span; k++ {
				m, ok := tb.Lookup(k)
				want := ok && m.Dirty
				if got := tb.IsDirty(k); got != want {
					t.Fatalf("seed=%d step %d: IsDirty(%d)=%v, Lookup says %v",
						seed, step, k, got, want)
				}
			}
		}
		for step := 0; step < 400; step++ {
			k := rng.Int63n(span)
			n := rng.Int63n(64) + 1
			switch rng.Intn(8) {
			case 0:
				tb.Insert(Mapping{Orig: k, Cache: k + 10000, Dirty: rng.Intn(2) == 0})
			case 1:
				tb.InsertRun(k, k+10000, n, rng.Intn(2) == 0)
			case 2:
				tb.Remove(k)
			case 3:
				tb.RemoveRun(k, n)
			case 4:
				tb.SetDirty(k, rng.Intn(2) == 0)
			case 5:
				tb.SetDirtyRun(k, n, rng.Intn(2) == 0)
			case 6:
				if rng.Intn(20) == 0 {
					tb.Clear()
				}
			default:
				tb.SetDirtyRun(k, n, true)
			}
			if step%40 == 0 {
				check(step)
			}
		}
		check(400)
	}
}
