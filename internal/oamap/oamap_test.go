package oamap

import (
	"math/rand"
	"testing"
)

// get is Get with -1 for an absent key, the shape the checks below want.
func get(m *Map[int32], k int64) int32 {
	if v, ok := m.Get(k); ok {
		return v
	}
	return -1
}

// TestMatchesMapReference drives random put/get/del interleavings
// through a Map and a plain Go map side by side. Key spaces are sized at
// a few multiples of capacity so probe chains collide and deletions
// exercise the backward-shift path constantly; the table is sized for
// its population, as the policies size theirs, and must not grow.
func TestMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{3, 8, 61, 256} {
		rng := rand.New(rand.NewSource(int64(1000 + capacity)))
		m := New[int32](capacity)
		size := len(m.cells)
		ref := make(map[int64]int32)
		keySpace := int64(4 * capacity)
		for op := 0; op < 20000; op++ {
			k := rng.Int63n(keySpace)
			switch {
			case rng.Intn(10) < 5: // get
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := get(m, k); got != want {
					t.Fatalf("cap %d op %d: get(%d) = %d, want %d", capacity, op, k, got, want)
				}
			case rng.Intn(10) < 7: // put (absent keys only; Put assumes absence)
				if _, ok := ref[k]; ok || len(ref) >= capacity {
					continue
				}
				s := int32(rng.Intn(1 << 20))
				m.Put(k, s)
				ref[k] = s
			default: // del (present or absent)
				want, mapped := ref[k]
				if got, ok := m.Del(k); ok != mapped || got != want {
					t.Fatalf("cap %d op %d: Del(%d) = %d, %v, want %d, %v", capacity, op, k, got, ok, want, mapped)
				}
				delete(ref, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("cap %d op %d: Len %d, want %d", capacity, op, m.Len(), len(ref))
			}
		}
		// Final sweep: every model key resolves, a sample of absent keys miss.
		for k, s := range ref {
			if got := get(m, k); got != s {
				t.Fatalf("cap %d final: get(%d) = %d, want %d", capacity, k, got, s)
			}
		}
		for i := 0; i < 100; i++ {
			k := keySpace + rng.Int63n(keySpace)
			if got := get(m, k); got != -1 {
				t.Fatalf("cap %d final: absent get(%d) = %d", capacity, k, got)
			}
		}
		if len(m.cells) != size {
			t.Fatalf("cap %d: table sized for its population grew %d → %d cells", capacity, size, len(m.cells))
		}
	}
}

// TestGrowingMatchesMapReference is the same comparison on a table that
// starts at the minimum size and doubles many times under churn — the
// mapping cache's use: find-or-insert through Probe/Fill, Del of present
// and absent keys, in-place update through At, and All against the
// model.
func TestGrowingMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := New[int32](0)
	first := len(m.cells)
	ref := make(map[int64]int32)
	for op := 0; op < 60000; op++ {
		var k int64
		switch rng.Intn(3) {
		case 0:
			k = rng.Int63n(8192) // dense
		case 1:
			k = 64 * rng.Int63n(8192) // strided
		default:
			k = rng.Int63() - rng.Int63() // sparse, both signs
		}
		switch r := rng.Intn(10); {
		case r < 6:
			v := int32(op)
			if at, ok := m.Probe(k); ok {
				*m.At(at) = v
			} else {
				m.Fill(at, k, v)
			}
			ref[k] = v
		case r < 8:
			want, mapped := ref[k]
			if got, ok := m.Del(k); ok != mapped || got != want {
				t.Fatalf("op %d: Del(%d) = %d, %v, want %d, %v", op, k, got, ok, want, mapped)
			}
			delete(ref, k)
		default:
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			if got := get(m, k); got != want {
				t.Fatalf("op %d: get(%d) = %d, want %d", op, k, got, want)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", op, m.Len(), len(ref))
		}
		if 2*m.Len() > len(m.cells) {
			t.Fatalf("op %d: %d keys in %d cells, above half full", op, m.Len(), len(m.cells))
		}
	}
	if len(m.cells) < first<<8 {
		t.Fatalf("table went %d → %d cells; the test wants at least eight doublings", first, len(m.cells))
	}
	seen := 0
	for k, v := range m.All() {
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("All yields %d → %d, model has %d (mapped %v)", k, v, want, ok)
		}
		seen++
	}
	if seen != len(ref) {
		t.Fatalf("All yields %d entries, model has %d", seen, len(ref))
	}
	m.Clear()
	if m.Len() != 0 || get(m, 1) != -1 {
		t.Fatalf("after Clear: Len %d, get(1) = %d", m.Len(), get(m, 1))
	}
	for range m.All() {
		t.Fatal("All yields an entry after Clear")
	}
}

// TestBackwardShift exercises the table under heavy collision churn:
// keys chosen to collide (dense sequential and strided), interleaved
// put/del, verified against a map.
func TestBackwardShift(t *testing.T) {
	m := New[int32](128)
	shadow := make(map[int64]int32)
	rng := rand.New(rand.NewSource(3))
	nextSlot := int32(0)
	for step := 0; step < 20000; step++ {
		var k int64
		switch rng.Intn(3) {
		case 0:
			k = rng.Int63n(256) // dense
		case 1:
			k = 64 * rng.Int63n(256) // strided
		default:
			k = rng.Int63() // sparse
		}
		if s, ok := shadow[k]; ok {
			if rng.Intn(2) == 0 {
				if got := get(m, k); got != s {
					t.Fatalf("step %d: get(%d) = %d, want %d", step, k, got, s)
				}
			} else {
				m.Del(k)
				delete(shadow, k)
				if got := get(m, k); got != -1 {
					t.Fatalf("step %d: get(%d) = %d after del", step, k, got)
				}
			}
		} else if len(shadow) < 128 {
			m.Put(k, nextSlot)
			shadow[k] = nextSlot
			nextSlot++
		}
	}
	for k, s := range shadow {
		if got := get(m, k); got != s {
			t.Fatalf("final: get(%d) = %d, want %d", k, got, s)
		}
	}
}

// TestBackwardShiftWraparound pins the delete path where the probe
// chain crosses the table's wrap boundary: keys homing to the last cells
// spill into cell 0 and beyond, and a deletion near the end must shift
// those wrapped successors back across the boundary.
func TestBackwardShiftWraparound(t *testing.T) {
	probe := New[int32](8)
	size := len(probe.cells)
	// Collect keys whose home cell is within 3 of the wrap point, so a
	// handful of inserts builds one chain spanning end → start.
	var keys []int64
	for k := int64(0); len(keys) < 6 && k < 1<<20; k++ {
		if int(probe.home(k)) >= size-3 {
			keys = append(keys, k)
		}
	}
	if len(keys) < 6 {
		t.Fatalf("found only %d wrap-homed keys", len(keys))
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		m := New[int32](8)
		ref := make(map[int64]int32)
		for i, k := range keys {
			m.Put(k, int32(i))
			ref[k] = int32(i)
		}
		// Delete a random prefix of a random permutation, checking the
		// survivors (some stored past the wrap) after every deletion.
		perm := rng.Perm(len(keys))
		drop := 1 + rng.Intn(len(keys))
		for _, pi := range perm[:drop] {
			m.Del(keys[pi])
			delete(ref, keys[pi])
			for _, k := range keys {
				want, ok := ref[k]
				if !ok {
					want = -1
				}
				if got := get(m, k); got != want {
					t.Fatalf("trial %d: after del, get(%d) = %d, want %d", trial, k, got, want)
				}
			}
		}
		// Reinsert what was dropped; the chain must rebuild cleanly.
		for _, pi := range perm[:drop] {
			k := keys[pi]
			m.Put(k, int32(pi))
			ref[k] = int32(pi)
		}
		for _, k := range keys {
			if got := get(m, k); got != ref[k] {
				t.Fatalf("trial %d: after reinsert, get(%d) = %d, want %d", trial, k, got, ref[k])
			}
		}
	}
}

// TestProbeAllocFree gates the probe loops: Get, Put, Del, Probe and
// Fill must not allocate — they are inner loops of every policy's
// Access/Insert/Remove path and of every mapping-cache call.
func TestProbeAllocFree(t *testing.T) {
	m := New[int32](1024)
	for i := 0; i < 1024; i++ {
		m.Put(int64(i*7), int32(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			if get(m, int64(i*7)) != int32(i) {
				t.Error("resident key missing")
			}
		}
		m.Del(7 * 513)
		if at, ok := m.Probe(7 * 513); !ok {
			m.Fill(at, 7*513, 513)
		}
	})
	if allocs != 0 {
		t.Fatalf("probe loop allocates: %v allocs/run", allocs)
	}
}

// benchMap builds a table of n resident keys plus a shuffled probe
// order large enough to defeat the prefetcher.
func benchMap(n int) (*Map[int32], []int64) {
	m := New[int32](n)
	keys := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = int64(i)*64 + rng.Int63n(64)
		m.Put(keys[i], int32(i))
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return m, keys
}

// BenchmarkProbeHit measures resident-key probes on a table an order of
// magnitude past L2, where key and value sharing one 16-byte cell — one
// line per probe step — dominates.
func BenchmarkProbeHit(b *testing.B) {
	m, keys := benchMap(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i&(1<<18-1)]); !ok {
			b.Fatal("resident key missing")
		}
	}
}

// BenchmarkProbeMiss measures absent-key probes (the insert fast path's
// Probe shape: walk to the first empty cell).
func BenchmarkProbeMiss(b *testing.B) {
	m, keys := benchMap(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(keys[i&(1<<18-1)] + 1<<40); ok {
			b.Fatal("phantom key resident")
		}
	}
}

// BenchmarkChurn measures the evict-reinsert shape: one backward-shift
// delete plus one put per operation.
func BenchmarkChurn(b *testing.B) {
	m, keys := benchMap(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<18-1)]
		m.Del(k)
		m.Put(k, int32(i))
	}
}
