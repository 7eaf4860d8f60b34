package mapcache

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTable is the definition the table is checked against, sharing no
// code with it: a Go map, the §4.2 dirty-log records written out by rule
// (a record whenever an address's dirty state or existence changes:
// insert-dirty, clean-over-dirty, clean, remove), and LookupRun as its
// doc comment words it — scan forward from orig.
type refTable struct {
	m   map[int64]Mapping
	log bytes.Buffer
}

func newRefTable() *refTable { return &refTable{m: make(map[int64]Mapping)} }

func (r *refTable) record(kind byte, orig, cache int64) {
	var rec [17]byte
	rec[0] = kind
	binary.LittleEndian.PutUint64(rec[1:], uint64(orig))
	binary.LittleEndian.PutUint64(rec[9:], uint64(cache))
	r.log.Write(rec[:])
}

func (r *refTable) insert(m Mapping) {
	old := r.m[m.Orig]
	r.m[m.Orig] = m
	if m.Dirty {
		r.record(1, m.Orig, m.Cache)
	} else if old.Dirty {
		r.record(2, m.Orig, 0)
	}
}

func (r *refTable) remove(orig int64) (Mapping, bool) {
	m, ok := r.m[orig]
	if ok {
		delete(r.m, orig)
		r.record(3, orig, 0)
	}
	return m, ok
}

func (r *refTable) setDirty(orig int64, dirty bool) bool {
	m, ok := r.m[orig]
	if !ok || m.Dirty == dirty {
		return ok
	}
	m.Dirty = dirty
	r.m[orig] = m
	if dirty {
		r.record(1, orig, m.Cache)
	} else {
		r.record(2, orig, 0)
	}
	return true
}

func (r *refTable) lookupRun(orig, max int64) (Mapping, int64, bool) {
	if max <= 0 {
		return Mapping{}, 0, false
	}
	first, hit := r.m[orig]
	n := int64(1)
	for ; n < max; n++ {
		next, mapped := r.m[orig+n]
		if mapped != hit || (hit && next.Cache != first.Cache+n) {
			break
		}
	}
	return first, n, hit
}

func (r *refTable) sorted(dirtyOnly bool) []Mapping {
	var out []Mapping
	for _, m := range r.m {
		if m.Dirty || !dirtyOnly {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Orig < out[j].Orig })
	return out
}

// agree compares the table's whole state — mappings in Walk order, the
// dirty list, Len, the log bytes so far — with the model's.
func (r *refTable) agree(t *testing.T, tb *Table, log *bytes.Buffer, when string) {
	t.Helper()
	if tb.Len() != len(r.m) {
		t.Fatalf("%s: Len %d, model has %d", when, tb.Len(), len(r.m))
	}
	for _, dirtyOnly := range []bool{false, true} {
		got, want := collect(tb), r.sorted(dirtyOnly)
		if dirtyOnly {
			got = tb.DirtyMappings()
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d mappings (dirty only: %v), model has %d", when, len(got), dirtyOnly, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: mapping %d (dirty only: %v) is %+v, model has %+v", when, i, dirtyOnly, got[i], want[i])
			}
		}
	}
	if !bytes.Equal(log.Bytes(), r.log.Bytes()) {
		t.Fatalf("%s: dirty log is %d bytes, the model's %d, or differs in content", when, log.Len(), r.log.Len())
	}
}

// TestChurnMatchesMapModel drives a logging table and the model through
// insert/replace, remove, dirty flips either way, the run calls and the
// odd Clear, comparing every result as it goes and the whole state at
// intervals. The population is pushed from the initial array (8 cells,
// 4 keys) past 2048 keys — nine doublings — and back down more than
// once, so inserts double the array and removals shift chains in arrays
// of every size on the way.
func TestChurnMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb, ref := New(), newRefTable()
	var log bytes.Buffer
	tb.SetLog(&log)
	const space = 6000
	peak := 0
	for step := 0; step < 60000; step++ {
		k := rng.Int63n(space)
		// Alternate growing and shrinking phases so the table's size
		// sweeps its range instead of settling at an equilibrium.
		grow := (step/10000)%2 == 0
		switch r := rng.Intn(20); {
		case r < 8 && grow, r < 2:
			m := Mapping{Orig: k, Cache: rng.Int63n(1 << 20), Dirty: rng.Intn(2) == 0}
			tb.Insert(m)
			ref.insert(m)
		case r < 8:
			want, mapped := ref.remove(k)
			if got, ok := tb.Remove(k); ok != mapped || got != want {
				t.Fatalf("step %d: Remove(%d) = %+v, %v, model %+v, %v", step, k, got, ok, want, mapped)
			}
		case r < 11:
			dirty := rng.Intn(2) == 0
			if got, want := tb.SetDirty(k, dirty), ref.setDirty(k, dirty); got != want {
				t.Fatalf("step %d: SetDirty(%d) = %v, model %v", step, k, got, want)
			}
		case r < 13:
			n, cache, dirty := rng.Int63n(64)+1, rng.Int63n(1<<20), rng.Intn(2) == 0
			if !grow {
				n = 2
			}
			tb.InsertRun(k, cache, n, dirty)
			for i := int64(0); i < n; i++ {
				ref.insert(Mapping{Orig: k + i, Cache: cache + i, Dirty: dirty})
			}
		case r < 15:
			n, dirty := rng.Int63n(64)+1, rng.Intn(2) == 0
			var want int64
			for i := int64(0); i < n; i++ {
				if ref.setDirty(k+i, dirty) {
					want++
				}
			}
			if got := tb.SetDirtyRun(k, n, dirty); got != want {
				t.Fatalf("step %d: SetDirtyRun(%d, %d) = %d, model %d", step, k, n, got, want)
			}
		case r < 16:
			n := rng.Int63n(64) + 1
			if grow {
				n = 2
			}
			var want int64
			for i := int64(0); i < n; i++ {
				if _, ok := ref.remove(k + i); ok {
					want++
				}
			}
			if got := tb.RemoveRun(k, n); got != want {
				t.Fatalf("step %d: RemoveRun(%d, %d) = %d, model %d", step, k, n, got, want)
			}
		case r < 19:
			want, mapped := ref.m[k]
			if got, ok := tb.Lookup(k); ok != mapped || got != want {
				t.Fatalf("step %d: Lookup(%d) = %+v, %v, model %+v, %v", step, k, got, ok, want, mapped)
			}
			if got := tb.IsDirty(k); got != want.Dirty {
				t.Fatalf("step %d: IsDirty(%d) = %v, model %v", step, k, got, want.Dirty)
			}
		default:
			if rng.Intn(400) == 0 {
				// Clear writes no log records, so the old log no longer
				// describes the table: start a new one on both sides.
				ref.agree(t, tb, &log, "before Clear")
				tb.Clear()
				log.Reset()
				ref.m = make(map[int64]Mapping)
				ref.log.Reset()
			}
		}
		peak = max(peak, tb.Len())
		if step%5000 == 0 {
			ref.agree(t, tb, &log, "mid-run")
		}
	}
	ref.agree(t, tb, &log, "end")
	if peak < 2048 {
		t.Fatalf("population peaked at %d keys; the test means to pass 2048", peak)
	}
	// What Recover reads back from the log is the dirty list.
	got, err := Recover(&log)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.sorted(true)
	if len(got) != len(want) {
		t.Fatalf("Recover returns %d dirty mappings, model has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Recover: mapping %d is %+v, model has %+v", i, got[i], want[i])
		}
	}
}

// TestLookupRunMatchesDefinition checks LookupRun against the model's
// forward scan on random tables built from runs: neighbouring runs whose
// cache addresses do and do not continue, single blocks, gaps of every
// small width, and max from 1 to beyond the run or gap.
func TestLookupRunMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		tb, ref := New(), newRefTable()
		const space = 600
		if trial > 0 { // trial 0 is the empty table
			cache := rng.Int63n(1000)
			for orig := rng.Int63n(8); orig < space; {
				n := rng.Int63n(24) + 1
				tb.InsertRun(orig, cache, n, false)
				for i := int64(0); i < n; i++ {
					ref.insert(Mapping{Orig: orig + i, Cache: cache + i})
				}
				orig += n
				cache += n
				switch rng.Intn(3) {
				case 0: // the next run continues this one in both addresses
				case 1: // adjacent in P_A, elsewhere in P_C
					cache += 1 + rng.Int63n(50)
				default: // a gap in P_A; P_C may or may not continue
					orig += 1 + rng.Int63n(12)
					cache += rng.Int63n(2)
				}
			}
			// Punch single-block holes and re-point single blocks, so
			// runs also end and gaps also open mid-run.
			for i := 0; i < 20; i++ {
				k := rng.Int63n(space)
				if rng.Intn(2) == 0 {
					tb.Remove(k)
					ref.remove(k)
				} else {
					m := Mapping{Orig: k, Cache: 5000 + rng.Int63n(100)}
					tb.Insert(m)
					ref.insert(m)
				}
			}
		}
		for orig := int64(-3); orig < space+40; orig++ {
			for _, max := range []int64{1, 2, 3, 7, 25, 64, 700} {
				m, n, ok := tb.LookupRun(orig, max)
				wm, wn, wok := ref.lookupRun(orig, max)
				if m != wm || n != wn || ok != wok {
					t.Fatalf("trial %d: LookupRun(%d, %d) = %+v, %d, %v; scanning forward gives %+v, %d, %v",
						trial, orig, max, m, n, ok, wm, wn, wok)
				}
			}
		}
	}
}

// TestExtremeKeys: −1, 0 and the ends of the int64 range are addresses
// like any other — no key value is reserved to mean "empty".
func TestExtremeKeys(t *testing.T) {
	keys := []int64{math.MinInt64, -1, 0, math.MaxInt64} // ascending
	tb, ref := New(), newRefTable()
	var log bytes.Buffer
	tb.SetLog(&log)
	for _, k := range keys {
		if _, ok := tb.Lookup(k); ok || tb.IsDirty(k) || tb.SetDirty(k, true) {
			t.Fatalf("key %d present in an empty table", k)
		}
		if _, ok := tb.Remove(k); ok {
			t.Fatalf("Remove(%d) on an empty table succeeded", k)
		}
	}
	for i, k := range keys {
		m := Mapping{Orig: k, Cache: 100 + int64(i), Dirty: i%2 == 0}
		tb.Insert(m)
		ref.insert(m)
	}
	ref.agree(t, tb, &log, "after insert")
	for _, k := range keys {
		want := ref.m[k]
		if got, ok := tb.Lookup(k); !ok || got != want {
			t.Fatalf("Lookup(%d) = %+v, %v, want %+v", k, got, ok, want)
		}
		if tb.IsDirty(k) != want.Dirty {
			t.Fatalf("IsDirty(%d) = %v", k, !want.Dirty)
		}
		if m, n, ok := tb.LookupRun(k, 1); !ok || n != 1 || m != want {
			t.Fatalf("LookupRun(%d, 1) = %+v, %d, %v", k, m, n, ok)
		}
	}
	// −1 and 0 are neighbours with consecutive cache addresses: one run.
	if m, n, ok := tb.LookupRun(-1, 8); !ok || n != 2 || m.Cache != 101 {
		t.Fatalf("LookupRun(-1, 8) = %+v, %d, %v, want the two-block run −1, 0", m, n, ok)
	}
	if _, n, ok := tb.LookupRun(-4, 8); ok || n != 3 {
		t.Fatalf("LookupRun(-4, 8): gap of %d, mapped %v, want the 3-block gap before −1", n, ok)
	}
	if got := tb.SetDirtyRun(-1, 2, true); got != 2 {
		t.Fatalf("SetDirtyRun(-1, 2) found %d", got)
	}
	ref.setDirty(-1, true)
	ref.setDirty(0, true)
	for _, k := range keys {
		dirty := !ref.m[k].Dirty
		if !tb.SetDirty(k, dirty) {
			t.Fatalf("SetDirty(%d) found nothing", k)
		}
		ref.setDirty(k, dirty)
	}
	ref.agree(t, tb, &log, "after dirty flips")
	if got := tb.RemoveRun(-1, 2); got != 2 {
		t.Fatalf("RemoveRun(-1, 2) removed %d", got)
	}
	ref.remove(-1)
	ref.remove(0)
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		want, _ := ref.remove(k)
		if got, ok := tb.Remove(k); !ok || got != want {
			t.Fatalf("Remove(%d) = %+v, %v, want %+v", k, got, ok, want)
		}
	}
	ref.agree(t, tb, &log, "after remove")
}
