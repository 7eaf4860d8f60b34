package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// monotoneDirty is a dirty oracle that honours the Config.Dirty
// contract: a key turns dirty and stays dirty until it leaves the
// policy (eviction) or the owner builds a new one, and re-enters clean.
type monotoneDirty struct{ m map[Key]bool }

func (o *monotoneDirty) isDirty(k Key) bool { return o.m[k] }
func (o *monotoneDirty) set(k Key)          { o.m[k] = true }
func (o *monotoneDirty) drop(k Key)         { delete(o.m, k) }

// cursorCoverage counts the situations the cursor has to survive, so the
// property test can prove it met each of them at least once.
type cursorCoverage struct {
	newbornEvicted int // a key inserted by an InsertRun displaced later in the same call
	fallback       int // every candidate in the window dirty: the known-dirty LRU entry is the victim
	edgeVictim     int // ... and it is the run's front-most entry too (a one-entry window)
	edgeAccessed   int // the run's front-most entry moved to the MRU end
	innerLeft      int // a known entry other than the edge accessed
}

// checkCursor verifies dirtyTail's invariant from first principles: the
// known bits are set on exactly the last n list entries, the n-th from
// the LRU end is edge, and the oracle still calls every one dirty.
func checkCursor(t *testing.T, w *WLRU, o *monotoneDirty, step int) {
	t.Helper()
	c := &w.cursor
	if c.n < 0 || c.n > c.limit || c.n > w.list.size {
		t.Fatalf("step %d: run length %d outside [0, min(limit %d, size %d)]", step, c.n, c.limit, w.list.size)
	}
	s, last := w.list.back(), nilSlot
	for i := 0; i < c.n; i++ {
		if !c.isKnown(s) {
			t.Fatalf("step %d: entry %d from the LRU end (key %d) is in the run but not marked", step, i, w.slots[s].key)
		}
		if !o.isDirty(w.slots[s].key) {
			t.Fatalf("step %d: key %d is marked known-dirty but the oracle says clean", step, w.slots[s].key)
		}
		last, s = s, w.slots[s].prev
	}
	if last != c.edge {
		t.Fatalf("step %d: edge is slot %d, the run's front is slot %d", step, c.edge, last)
	}
	marked := 0
	for _, word := range c.known {
		for ; word != 0; word &= word - 1 {
			marked++
		}
	}
	if marked != c.n {
		t.Fatalf("step %d: %d known bits set, run length %d", step, marked, c.n)
	}
}

// slotOf returns k's arena slot, or nilSlot.
func slotOf(w *WLRU, k Key) int32 {
	if s, ok := w.idx.Get(k); ok {
		return s
	}
	return nilSlot
}

// TestWLRUCursorMatchesRescan pins the resumable cursor victim-for-victim
// against the scan it replaced (refLRU.pickVictim, which restarts at the
// LRU end on every eviction) over seeded mixes of every Policy mutation
// under a monotone dirty oracle, re-deriving the cursor invariant from
// the list after each step.
func TestWLRUCursorMatchesRescan(t *testing.T) {
	var cov cursorCoverage
	for _, capacity := range []int{1, 2, 64, 4096} {
		for _, window := range []float64{0, 0.01, 0.5, 1} {
			for _, pDirty := range []float64{0.2, 0.9, 1} {
				name := fmt.Sprintf("cap%d/w%g/dirty%g", capacity, window, pDirty)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 2; seed++ {
						runCursorMix(t, capacity, window, pDirty, seed, &cov)
					}
				})
			}
		}
	}
	for name, n := range map[string]int{
		"newborn evicted inside its own InsertRun": cov.newbornEvicted,
		"all-dirty window, LRU fallback":           cov.fallback,
		"edge chosen as victim":                    cov.edgeVictim,
		"edge accessed":                            cov.edgeAccessed,
		"inner known entry accessed":               cov.innerLeft,
	} {
		if n == 0 {
			t.Errorf("the mixes never produced: %s", name)
		}
	}
}

func runCursorMix(t *testing.T, capacity int, window, pDirty float64, seed int64, cov *cursorCoverage) {
	got := &monotoneDirty{m: map[Key]bool{}}
	want := &monotoneDirty{m: map[Key]bool{}}
	w := NewWLRU(capacity, window, got.isDirty)
	ref := newRefWLRU(capacity, window, want.isDirty)
	rng := rand.New(rand.NewSource(seed))
	keys := int64(3*capacity + 16)
	steps, every := 3000, 1
	if capacity > 64 {
		steps, every = 6000, 16 // the invariant walk is O(capacity)
	}
	setBoth := func(k Key) { got.set(k); want.set(k) }

	// noteLeaving classifies what unlinking k's entry does to the run.
	noteLeaving := func(k Key, edge *int) {
		s := slotOf(w, k)
		if s == nilSlot || !w.cursor.isKnown(s) {
			return
		}
		if s == w.cursor.edge {
			*edge++
		} else {
			cov.innerLeft++
		}
	}
	// noteVictim classifies an eviction. A scan only ever settles on a
	// dirty victim when it probed its whole window dirty: the run is
	// then limit entries long and the victim is its LRU end.
	var gotV, wantV []Key
	noteVictim := func(v Key) {
		if w.cursor.limit > 0 && got.isDirty(v) {
			cov.fallback++
			if w.cursor.limit == 1 {
				cov.edgeVictim++
			}
		}
	}

	for step := 0; step < steps; step++ {
		k := rng.Int63n(keys)
		n := rng.Int63n(48) + 1
		dirtyOp := rng.Float64() < pDirty
		switch op := rng.Intn(20); {
		case op < 4: // point access (a write hit dirties the key)
			if w.list.head != slotOf(w, k) { // the MRU entry stays put
				noteLeaving(k, &cov.edgeAccessed)
			}
			w.Access(k, 1)
			ref.Access(k, 1)
			if dirtyOp && w.Contains(k) {
				setBoth(k)
			}
		case op < 6: // point insert, dirtied before (bench order) or after (core order)
			before := rng.Intn(2) == 0
			if dirtyOp && before {
				setBoth(k)
			}
			gv, ge := w.Insert(k, 1)
			wv, we := ref.Insert(k, 1)
			if ge != we || gv != wv {
				t.Fatalf("step %d: Insert(%d) victim %d/%v, want %d/%v", step, k, gv, ge, wv, we)
			}
			if ge {
				noteVictim(gv)
				got.drop(gv)
				want.drop(wv)
			}
			if dirtyOp && !before && w.Contains(k) {
				setBoth(k)
			}
		case op < 11: // access run
			w.AccessRun(k, n, n)
			ref.AccessRun(k, n, n)
			if dirtyOp {
				for i := int64(0); i < n; i++ {
					if w.Contains(k + i) {
						setBoth(k + i)
					}
				}
			}
		case op == 11 && rng.Intn(20) == 0: // the owner builds a new policy, as Expand and CrashRestart do
			w, ref = NewWLRU(capacity, window, got.isDirty), newRefWLRU(capacity, window, want.isDirty)
			got.m, want.m = map[Key]bool{}, map[Key]bool{}
		default: // insert run
			before := rng.Intn(2) == 0
			fresh := map[Key]bool{}
			for i := int64(0); i < n; i++ {
				if !w.Contains(k + i) {
					fresh[k+i] = true
				}
				if dirtyOp && before {
					setBoth(k + i)
				}
			}
			gotV, wantV = gotV[:0], wantV[:0]
			w.InsertRun(k, n, n, func(v Key) {
				if fresh[v] {
					cov.newbornEvicted++
				}
				noteVictim(v)
				got.drop(v)
				gotV = append(gotV, v)
			})
			ref.InsertRun(k, n, n, func(v Key) {
				want.drop(v)
				wantV = append(wantV, v)
			})
			if len(gotV) != len(wantV) {
				t.Fatalf("step %d: InsertRun(%d,%d) evicted %d, want %d", step, k, n, len(gotV), len(wantV))
			}
			for i := range gotV {
				if gotV[i] != wantV[i] {
					t.Fatalf("step %d: InsertRun(%d,%d) victim %d: got %d, want %d", step, k, n, i, gotV[i], wantV[i])
				}
			}
			if dirtyOp && !before {
				for i := int64(0); i < n; i++ {
					if w.Contains(k + i) {
						setBoth(k + i)
					}
				}
			}
		}
		if w.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d != %d", step, w.Len(), ref.Len())
		}
		if step%every == 0 {
			checkCursor(t, w, got, step)
		}
	}
	checkCursor(t, w, got, steps)
	a, b := sortedKeys(w), sortedKeys(ref)
	if len(a) != len(b) {
		t.Fatalf("final residency size %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final residency diverged at %d: %d != %d", i, a[i], b[i])
		}
	}
}
