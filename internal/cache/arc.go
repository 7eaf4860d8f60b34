package cache

import "craid/internal/oamap"

// ARC list tags: which of T1/T2/B1/B2 currently holds a slot.
const (
	arcT1 = uint8(iota + 1)
	arcT2
	arcB1
	arcB2
)

// ARC is the Adaptive Replacement Cache of Megiddo and Modha (FAST ’03):
// it balances recency (T1) against frequency (T2) online by tracking
// ghost hits on recently evicted entries (B1, B2) and adapting the
// target size p of T1. Residents and ghosts share one slot arena of
// 2·capacity entries (the algorithm's total-population bound) with a
// per-slot list tag, and one index resolves both.
type ARC struct {
	capacity int
	p        int // target size of T1

	slots []slot
	where []uint8 // arcT1..arcB2; parallel to slots
	idx   *oamap.Map[int32]
	free  int32
	used  int32

	t1, t2, b1, b2 slotList
}

// NewARC returns an ARC policy with the given capacity.
func NewARC(capacity int) *ARC {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	a := &ARC{
		capacity: capacity,
		slots:    make([]slot, 2*capacity),
		where:    make([]uint8, 2*capacity),
		idx:      oamap.New[int32](2 * capacity),
		free:     nilSlot,
	}
	a.t1.init()
	a.t2.init()
	a.b1.init()
	a.b2.init()
	return a
}

// listOf maps a tag to its list.
func (a *ARC) listOf(w uint8) *slotList {
	switch w {
	case arcT1:
		return &a.t1
	case arcT2:
		return &a.t2
	case arcB1:
		return &a.b1
	default:
		return &a.b2
	}
}

// alloc takes a slot from the freelist (threaded through slot.next) or
// the bump region, initializing it for k. The arena holds the
// algorithm's population bound, so the bump cursor never passes
// len(slots). ARC is the one policy that frees slots — it drops ghosts —
// the others hand an evicted entry's slot straight to the newcomer.
func (a *ARC) alloc(k Key) int32 {
	s := a.free
	if s != nilSlot {
		a.free = a.slots[s].next
	} else {
		s = a.used
		a.used++
	}
	a.slots[s] = slot{key: k, prev: nilSlot, next: nilSlot}
	return s
}

// release returns a detached slot to the freelist.
func (a *ARC) release(s int32) {
	a.where[s] = 0
	a.slots[s].next = a.free
	a.free = s
}

// Len implements Policy.
func (a *ARC) Len() int { return a.t1.size + a.t2.size }

// P exposes the adaptive target size of T1 (for tests and diagnostics).
func (a *ARC) P() int { return a.p }

// Contains implements Policy: only T1 ∪ T2 are resident; ghosts are not.
func (a *ARC) Contains(k Key) bool {
	s, ok := a.idx.Get(k)
	return ok && (a.where[s] == arcT1 || a.where[s] == arcT2)
}

// Access implements Policy (case I of the ARC algorithm).
func (a *ARC) Access(k Key, _ int64) {
	s, ok := a.idx.Get(k)
	if !ok || (a.where[s] != arcT1 && a.where[s] != arcT2) {
		return
	}
	a.listOf(a.where[s]).remove(a.slots, s)
	a.where[s] = arcT2
	a.t2.pushFront(a.slots, s)
}

// Insert implements Policy (cases II–IV).
func (a *ARC) Insert(k Key, size int64) (Key, bool) {
	if s, ok := a.idx.Get(k); ok {
		switch a.where[s] {
		case arcT1, arcT2:
			a.Access(k, size)
			return 0, false
		case arcB1: // case II: ghost hit in B1 → grow p
			delta := 1
			if a.b1.size > 0 && a.b2.size/a.b1.size > 1 {
				delta = a.b2.size / a.b1.size
			}
			a.p = min(a.capacity, a.p+delta)
			victim, evicted := a.replace(false)
			a.b1.remove(a.slots, s)
			a.where[s] = arcT2
			a.t2.pushFront(a.slots, s)
			return victim, evicted
		default: // case III: ghost hit in B2 → shrink p
			delta := 1
			if a.b2.size > 0 && a.b1.size/a.b2.size > 1 {
				delta = a.b1.size / a.b2.size
			}
			a.p = max(0, a.p-delta)
			victim, evicted := a.replace(true)
			a.b2.remove(a.slots, s)
			a.where[s] = arcT2
			a.t2.pushFront(a.slots, s)
			return victim, evicted
		}
	}

	// Case IV: completely new key.
	var victim Key
	evicted := false
	if a.t1.size+a.b1.size == a.capacity {
		if a.t1.size < a.capacity {
			a.dropLRU(&a.b1)
			victim, evicted = a.replace(false)
		} else {
			// B1 is empty and T1 is full: evict the T1 LRU outright
			// (it does not become a ghost).
			lru := a.t1.back()
			lk := a.slots[lru].key
			a.t1.remove(a.slots, lru)
			a.idx.Del(lk)
			a.release(lru)
			victim, evicted = lk, true
		}
	} else if a.t1.size+a.b1.size < a.capacity {
		total := a.t1.size + a.t2.size + a.b1.size + a.b2.size
		if total >= a.capacity {
			if total == 2*a.capacity {
				a.dropLRU(&a.b2)
			}
			victim, evicted = a.replace(false)
		}
	}
	s := a.alloc(k)
	a.where[s] = arcT1
	a.idx.Put(k, s)
	a.t1.pushFront(a.slots, s)
	return victim, evicted
}

// AccessRun implements Policy via the per-key loop.
func (a *ARC) AccessRun(k Key, n, size int64) { accessRunGeneric(a, k, n, size) }

// InsertRun implements Policy via the per-key loop.
func (a *ARC) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(a, k, n, size, evicted)
}

// replace implements REPLACE(x, p): demote from T1 or T2 into the
// corresponding ghost list and report the evicted key. inB2 is whether
// the triggering key was a B2 ghost.
func (a *ARC) replace(inB2 bool) (Key, bool) {
	if a.t1.size >= 1 && ((inB2 && a.t1.size == a.p) || a.t1.size > a.p) {
		lru := a.t1.back()
		a.t1.remove(a.slots, lru)
		a.where[lru] = arcB1
		a.b1.pushFront(a.slots, lru)
		return a.slots[lru].key, true
	}
	if a.t2.size >= 1 {
		lru := a.t2.back()
		a.t2.remove(a.slots, lru)
		a.where[lru] = arcB2
		a.b2.pushFront(a.slots, lru)
		return a.slots[lru].key, true
	}
	return 0, false
}

// dropLRU discards the LRU ghost of list l entirely.
func (a *ARC) dropLRU(l *slotList) {
	lru := l.back()
	if lru == nilSlot {
		return
	}
	l.remove(a.slots, lru)
	a.idx.Del(a.slots[lru].key)
	a.release(lru)
}

// Keys implements Policy.
func (a *ARC) Keys() []Key {
	out := make([]Key, 0, a.Len())
	for _, l := range []*slotList{&a.t1, &a.t2} {
		for s := l.head; s != nilSlot; s = a.slots[s].next {
			out = append(out, a.slots[s].key)
		}
	}
	return out
}
