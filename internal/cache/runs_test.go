package cache

import (
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
