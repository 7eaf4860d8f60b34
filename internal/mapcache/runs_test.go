package mapcache

import (
	"bytes"
	"math/rand"
	"testing"
)

// collect snapshots a table as a sorted mapping slice.
func collect(t *Table) []Mapping {
	var out []Mapping
	t.Walk(func(m Mapping) bool { out = append(out, m); return true })
	return out
}

func equalTables(t *testing.T, runT, blockT *Table, step int) {
	t.Helper()
	a, b := collect(runT), collect(blockT)
	if len(a) != len(b) {
		t.Fatalf("step %d: run table has %d mappings, per-block has %d", step, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: mapping %d: run %+v != per-block %+v", step, i, a[i], b[i])
		}
	}
	if runT.Len() != blockT.Len() {
		t.Fatalf("step %d: Len %d != %d", step, runT.Len(), blockT.Len())
	}
}

// TestRunAPIsMatchPerBlock drives two tables through the same random
// workload — one via the run APIs, one via a loop of the per-block
// equivalents — and requires identical state, results and dirty logs at
// every step.
func TestRunAPIsMatchPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const space = 2000
	for trial := 0; trial < 20; trial++ {
		var runLog, blockLog bytes.Buffer
		runT, blockT := New(), New()
		runT.SetLog(&runLog)
		blockT.SetLog(&blockLog)
		var cacheNext int64
		for step := 0; step < 500; step++ {
			orig := rng.Int63n(space)
			n := rng.Int63n(64) + 1
			switch rng.Intn(4) {
			case 0: // InsertRun vs loop of Insert
				dirty := rng.Intn(2) == 0
				cache := cacheNext
				cacheNext += n
				runT.InsertRun(orig, cache, n, dirty)
				for i := int64(0); i < n; i++ {
					blockT.Insert(Mapping{Orig: orig + i, Cache: cache + i, Dirty: dirty})
				}
			case 1: // SetDirtyRun vs loop of SetDirty
				dirty := rng.Intn(2) == 0
				got := runT.SetDirtyRun(orig, n, dirty)
				var want int64
				for i := int64(0); i < n; i++ {
					if blockT.SetDirty(orig+i, dirty) {
						want++
					}
				}
				if got != want {
					t.Fatalf("step %d: SetDirtyRun(%d,%d)=%d, loop found %d", step, orig, n, got, want)
				}
			case 2: // RemoveRun vs loop of Remove
				got := runT.RemoveRun(orig, n)
				var want int64
				for i := int64(0); i < n; i++ {
					if _, ok := blockT.Remove(orig + i); ok {
						want++
					}
				}
				if got != want {
					t.Fatalf("step %d: RemoveRun(%d,%d)=%d, loop removed %d", step, orig, n, got, want)
				}
			case 3: // LookupRun vs loop of Lookup
				m, got, ok := runT.LookupRun(orig, n)
				wm, wok := blockT.Lookup(orig)
				if ok != wok {
					t.Fatalf("step %d: LookupRun(%d) ok=%v, Lookup ok=%v", step, orig, ok, wok)
				}
				if ok {
					if m != wm {
						t.Fatalf("step %d: LookupRun(%d) = %+v, Lookup = %+v", step, orig, m, wm)
					}
					// Recompute the run length with per-block lookups.
					want := int64(1)
					for want < n {
						m2, ok2 := blockT.Lookup(orig + want)
						if !ok2 || m2.Cache != wm.Cache+want {
							break
						}
						want++
					}
					if got != want {
						t.Fatalf("step %d: LookupRun(%d,%d) n=%d, per-block run=%d", step, orig, n, got, want)
					}
				} else {
					// Gap length: distance to the next mapped address.
					want := n
					for i := int64(0); i < n; i++ {
						if _, ok2 := blockT.Lookup(orig + i); ok2 {
							want = i
							break
						}
					}
					if got != want {
						t.Fatalf("step %d: LookupRun(%d,%d) gap=%d, per-block gap=%d", step, orig, n, got, want)
					}
				}
			}
			equalTables(t, runT, blockT, step)
			if !bytes.Equal(runLog.Bytes(), blockLog.Bytes()) {
				t.Fatalf("step %d: dirty logs diverged (%d vs %d bytes)", step, runLog.Len(), blockLog.Len())
			}
		}
	}
}

// TestLookupRunEdges pins the boundary behaviors of LookupRun.
func TestLookupRunEdges(t *testing.T) {
	tb := New()
	if _, n, ok := tb.LookupRun(5, 10); ok || n != 10 {
		t.Fatalf("empty table: got n=%d ok=%v, want 10/false", n, ok)
	}
	if _, n, ok := tb.LookupRun(5, 0); ok || n != 0 {
		t.Fatalf("max=0: got n=%d ok=%v, want 0/false", n, ok)
	}
	// Contiguous origs with a cache discontinuity split the run.
	tb.Insert(Mapping{Orig: 10, Cache: 100})
	tb.Insert(Mapping{Orig: 11, Cache: 101})
	tb.Insert(Mapping{Orig: 12, Cache: 300})
	tb.Insert(Mapping{Orig: 13, Cache: 301})
	if m, n, ok := tb.LookupRun(10, 100); !ok || n != 2 || m.Cache != 100 {
		t.Fatalf("run at 10: m=%+v n=%d ok=%v, want cache 100 n=2", m, n, ok)
	}
	if m, n, ok := tb.LookupRun(12, 100); !ok || n != 2 || m.Cache != 300 {
		t.Fatalf("run at 12: m=%+v n=%d ok=%v, want cache 300 n=2", m, n, ok)
	}
	// A gap is reported up to the next mapping.
	if _, n, ok := tb.LookupRun(5, 100); ok || n != 5 {
		t.Fatalf("gap before 10: n=%d ok=%v, want 5/false", n, ok)
	}
	// max caps both runs and gaps.
	if _, n, ok := tb.LookupRun(10, 1); !ok || n != 1 {
		t.Fatalf("capped run: n=%d ok=%v, want 1/true", n, ok)
	}
	if _, n, ok := tb.LookupRun(8, 1); ok || n != 1 {
		t.Fatalf("capped gap: n=%d ok=%v, want 1/false", n, ok)
	}
}

// TestChurnAllocFree gates the two shapes that refill a table which has
// already reached its size: monitor churn (remove + insert) and a
// crash-restart or invalidating expansion (Clear, then refill at once).
// Removal and Clear keep the cell array, so neither allocates.
func TestChurnAllocFree(t *testing.T) {
	tb := New()
	for i := int64(0); i < 100; i++ {
		tb.Insert(Mapping{Orig: i, Cache: i})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Remove(42)
		tb.Insert(Mapping{Orig: 42, Cache: 42})
	})
	if allocs > 0 {
		t.Fatalf("churn allocated %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		tb.Clear()
		for i := int64(0); i < 100; i++ {
			tb.Insert(Mapping{Orig: i, Cache: i})
		}
	})
	if allocs > 0 || tb.Len() != 100 {
		t.Fatalf("clear and refill allocated %.1f per round, want 0; %d mappings", allocs, tb.Len())
	}
}
