package cache

import "testing"

// The slot-arena contract: after construction, no steady-state policy
// operation allocates — not point ops, not run ops, not insert/evict
// churn at capacity. These gates hold for ALL five policies (the old
// design only managed it for LRU/WLRU), which is what makes the CRAID
// Submit path allocation-free end to end (core's TestSubmitWarmAllocFree).

// gatePolicy builds a warm policy at capacity 2048 with a non-nil
// allocation-free dirty func for WLRU.
func gatePolicy(t *testing.T, name string) Policy {
	t.Helper()
	p, err := New(name, 2048, Config{Dirty: func(k Key) bool { return k%5 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2048; i += 64 {
		p.InsertRun(i, 64, 64, func(Key) {})
	}
	return p
}

// TestAccessRunAllocFree gates AccessRun at zero allocations for every
// policy, on both all-hit extents and scattered partial hits.
func TestAccessRunAllocFree(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := gatePolicy(t, name)
			k := int64(0)
			if allocs := testing.AllocsPerRun(500, func() {
				p.AccessRun(k%2048, 64, 64)
				k += 64
			}); allocs > 0 {
				t.Fatalf("AccessRun allocated %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestInsertRunAllocFree gates InsertRun at zero allocations for every
// policy under steady-state insert/evict churn (fresh runs against a
// full cache: every insert displaces a victim).
func TestInsertRunAllocFree(t *testing.T) {
	sink := func(Key) {}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := gatePolicy(t, name)
			next := int64(1 << 20)
			if allocs := testing.AllocsPerRun(500, func() {
				p.InsertRun(next, 64, 64, sink)
				next += 64
			}); allocs > 0 {
				t.Fatalf("InsertRun churn allocated %.1f per run, want 0", allocs)
			}
		})
	}
}

// TestPointOpsAllocFree gates the point operations (Access, Insert,
// Contains) at zero steady-state allocations for every policy.
func TestPointOpsAllocFree(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p := gatePolicy(t, name)
			next := int64(1 << 20)
			if allocs := testing.AllocsPerRun(1000, func() {
				p.Insert(next, 1) // at capacity: evicts
				p.Access(next, 1)
				p.Contains(next)
				p.Insert(next, 1) // resident: an access
				next++
			}); allocs > 0 {
				t.Fatalf("point-op churn allocated %.1f per op, want 0", allocs)
			}
		})
	}
}

// TestPolicyConstructionAllocs bounds what building a policy allocates:
// the policy value, its arena, its key index (two allocations) and, for
// WLRU with a dirty function, the cursor's bitset; ARC adds its list
// tags and LFUDA/GDSF their heap. One entry array per policy keeps the
// count independent of how many fields an entry has.
func TestPolicyConstructionAllocs(t *testing.T) {
	limit := map[string]float64{"LRU": 4, "WLRU": 5, "ARC": 5, "LFUDA": 5, "GDSF": 5}
	dirty := func(Key) bool { return false }
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := New(name, 1000, Config{Dirty: dirty}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > limit[name] {
				t.Fatalf("New(%q, 1000) allocated %.0f times, want at most %.0f", name, allocs, limit[name])
			}
		})
	}
}
