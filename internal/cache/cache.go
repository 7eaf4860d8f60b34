// Package cache implements the replacement policies CRAID's I/O
// monitor can use to manage the cache partition: LRU, LFUDA, GDSF, ARC
// and WLRU(w) (paper §4.1). All policies store opaque int64 keys (block
// numbers), run in O(1) or O(log n) per operation, and are deliberately
// lightweight — the paper chooses them because they are cheap enough to
// live inside a RAID controller.
//
// Every policy is built on dense slot arenas (see arena.go): entries
// live in flat []slot arrays indexed by int32 handles, intrusive links
// are slot indices, and residency is resolved by one open-addressing
// int64→int32 index per policy — no Go maps, no per-entry heap objects,
// and zero allocation on every steady-state operation. Each policy has
// one per-key path: AccessRun and InsertRun are loops of Access and
// Insert in every one of them. The map-based originals are retained in
// reference_test.go, and property tests pin the arena policies to them
// victim-for-victim.
package cache

import "fmt"

// Key identifies a cached entry (a block address in CRAID's use).
type Key = int64

// Policy is a fixed-capacity replacement policy. It tracks only keys
// and replacement metadata; the data itself lives elsewhere.
type Policy interface {
	// Len returns the current number of entries.
	Len() int
	// Contains reports whether k is resident (ghost entries excluded).
	Contains(k Key) bool
	// Access records a hit on k. size is the originating request size
	// in blocks (only GDSF uses it). Access on a non-resident key is a
	// no-op.
	Access(k Key, size int64)
	// Insert adds non-resident k, evicting a victim if at capacity.
	// Inserting a resident key is equivalent to Access.
	Insert(k Key, size int64) (victim Key, evicted bool)
	// AccessRun records hits on the n consecutive keys k..k+n-1 in
	// ascending order, exactly as a loop of Access would.
	AccessRun(k Key, n, size int64)
	// InsertRun inserts the n consecutive keys k..k+n-1 in ascending
	// order, calling evicted for each victim as it is displaced,
	// exactly as a loop of Insert would. evicted must not call back
	// into the policy.
	InsertRun(k Key, n, size int64, evicted func(victim Key))
	// Keys returns resident keys in no particular order.
	Keys() []Key
}

// DirtyFunc reports whether a key's cached copy is dirty. WLRU consults
// it to prefer clean victims (a dirty eviction costs CRAID four extra
// parity I/Os). See Config.Dirty for what it must guarantee.
type DirtyFunc func(Key) bool

// Config carries optional policy parameters.
type Config struct {
	// Dirty is consulted by WLRU; nil means "never dirty".
	//
	// Contract: while a key is resident in the policy its answer may
	// change from clean to dirty but never back. A dirty copy becomes
	// clean only by leaving the policy (eviction) or by the owner
	// building a new policy, and a key inserted again starts
	// over. WLRU relies on this to remember which LRU-end entries it
	// has already found dirty instead of probing them again on every
	// eviction. The function must be pure otherwise: how often and for
	// which resident keys it is called is unspecified.
	Dirty DirtyFunc
}

// New constructs a policy by canonical name: "LRU", "LFUDA", "GDSF",
// "ARC" or "WLRU" (window 0.5, the paper's choice after §5.1).
func New(name string, capacity int, cfg Config) (Policy, error) {
	switch name {
	case "LRU":
		return NewLRU(capacity), nil
	case "LFUDA":
		return NewLFUDA(capacity), nil
	case "GDSF":
		return NewGDSF(capacity), nil
	case "ARC":
		return NewARC(capacity), nil
	case "WLRU":
		return NewWLRU(capacity, 0.5, cfg.Dirty), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// Names returns the canonical policy names in the paper's order.
func Names() []string { return []string{"LRU", "LFUDA", "GDSF", "ARC", "WLRU"} }

// accessRunGeneric is every policy's AccessRun: a loop of Access.
func accessRunGeneric(p Policy, k Key, n, size int64) {
	for i := int64(0); i < n; i++ {
		p.Access(k+i, size)
	}
}

// insertRunGeneric is every policy's InsertRun: a loop of Insert that
// reports each victim as it is displaced.
func insertRunGeneric(p Policy, k Key, n, size int64, evicted func(Key)) {
	for i := int64(0); i < n; i++ {
		if v, ev := p.Insert(k+i, size); ev {
			evicted(v)
		}
	}
}
