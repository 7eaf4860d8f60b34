package cache

import (
	"math/rand"
	"sort"
	"testing"
)

func newPolicy(t *testing.T, name string, capacity int, dirty DirtyFunc) Policy {
	t.Helper()
	p, err := New(name, capacity, Config{Dirty: dirty})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sortedKeys(p Policy) []Key {
	ks := p.Keys()
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// TestBatchedMatchesPerBlock drives two instances of every policy
// through the same random run workload — one via AccessRun/InsertRun,
// one via loops of Access/Insert — and requires the identical victim
// sequence and identical residency at every step.
func TestBatchedMatchesPerBlock(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			const capacity = 128
			// WLRU consults a dirty predicate; give both instances the
			// same deterministic one.
			dirty := func(k Key) bool { return k%3 == 0 }
			batched := newPolicy(t, name, capacity, dirty)
			perBlock := newPolicy(t, name, capacity, dirty)
			rng := rand.New(rand.NewSource(11))
			for step := 0; step < 3000; step++ {
				k := rng.Int63n(1024)
				n := rng.Int63n(32) + 1
				size := rng.Int63n(256) + 1
				if rng.Intn(2) == 0 {
					batched.AccessRun(k, n, size)
					for i := int64(0); i < n; i++ {
						perBlock.Access(k+i, size)
					}
				} else {
					var got, want []Key
					batched.InsertRun(k, n, size, func(v Key) { got = append(got, v) })
					for i := int64(0); i < n; i++ {
						if v, ev := perBlock.Insert(k+i, size); ev {
							want = append(want, v)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("step %d: batched evicted %d, per-block %d", step, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d: victim %d: batched %d, per-block %d", step, i, got[i], want[i])
						}
					}
				}
				if batched.Len() != perBlock.Len() {
					t.Fatalf("step %d: Len %d != %d", step, batched.Len(), perBlock.Len())
				}
			}
			a, b := sortedKeys(batched), sortedKeys(perBlock)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("final residency diverged at %d: %d != %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestLRUFreelistReuse checks that steady-state insert/evict churn hands
// each victim's slot to the newcomer and allocates nothing.
func TestLRUFreelistReuse(t *testing.T) {
	for _, name := range []string{"LRU", "WLRU"} {
		t.Run(name, func(t *testing.T) {
			p := newPolicy(t, name, 64, nil)
			for i := int64(0); i < 64; i++ {
				p.Insert(i, 1)
			}
			next := int64(64)
			allocs := testing.AllocsPerRun(1000, func() {
				p.Insert(next, 1) // at capacity: reuses the victim's entry
				next++
			})
			if allocs > 0 {
				t.Fatalf("insert/evict churn allocated %.1f per op, want 0", allocs)
			}
			if p.Len() != 64 {
				t.Fatalf("Len %d after churn, want 64", p.Len())
			}
		})
	}
}
