package cache

// The map-based reference policies: the pre-arena implementations of
// LRU, WLRU, LFUDA, GDSF and ARC, retained verbatim (map[Key]*entry
// residency, pointer-linked lists, container/heap) as the executable
// specification the slot-arena rewrites are property-tested against.
// newReferencePolicy mirrors New; equivalence_test.go drives both
// implementations through identical workloads and requires bit-identical
// victim sequences, residency and adaptive state at every step.

import (
	"container/heap"
	"fmt"
)

// newReferencePolicy constructs the map-based reference for name.
func newReferencePolicy(name string, capacity int, cfg Config) (Policy, error) {
	switch name {
	case "LRU":
		return newRefLRU(capacity), nil
	case "LFUDA":
		return newRefAging(capacity, false), nil
	case "GDSF":
		return newRefAging(capacity, true), nil
	case "ARC":
		return newRefARC(capacity), nil
	case "WLRU":
		return newRefWLRU(capacity, 0.5, cfg.Dirty), nil
	}
	return nil, fmt.Errorf("cache: unknown reference policy %q", name)
}

// refEntry is a node of the reference's pointer-linked LRU list.
type refEntry struct {
	key        Key
	prev, next *refEntry
}

type refList struct {
	head, tail refEntry // sentinels
	size       int
}

func (l *refList) init() {
	l.head.next = &l.tail
	l.tail.prev = &l.head
	l.size = 0
}

func (l *refList) pushFront(e *refEntry) {
	e.prev = &l.head
	e.next = l.head.next
	e.prev.next = e
	e.next.prev = e
	l.size++
}

func (l *refList) remove(e *refEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.size--
}

func (l *refList) moveFront(e *refEntry) {
	l.remove(e)
	l.pushFront(e)
}

func (l *refList) back() *refEntry {
	if l.size == 0 {
		return nil
	}
	return l.tail.prev
}

// refLRU is the reference LRU/WLRU: map residency + pointer list.
// window < 0 means plain LRU.
type refLRU struct {
	capacity int
	window   float64
	dirty    DirtyFunc
	items    map[Key]*refEntry
	list     refList
}

func newRefLRU(capacity int) *refLRU {
	l := &refLRU{capacity: capacity, window: -1,
		items: make(map[Key]*refEntry, capacity)}
	l.list.init()
	return l
}

func newRefWLRU(capacity int, w float64, dirty DirtyFunc) *refLRU {
	l := &refLRU{capacity: capacity, window: w, dirty: dirty,
		items: make(map[Key]*refEntry, capacity)}
	l.list.init()
	return l
}

func (l *refLRU) Len() int            { return len(l.items) }
func (l *refLRU) Contains(k Key) bool { _, ok := l.items[k]; return ok }

func (l *refLRU) Access(k Key, _ int64) {
	if e, ok := l.items[k]; ok {
		l.list.moveFront(e)
	}
}

// pickVictim is the paper's §4.1 victim scan exactly as WLRU ran it
// before the dirtyTail cursor: restart at the LRU end on every
// eviction, probe up to window·capacity entries, take the first clean
// one. It survives here as the specification the cursor is pinned to
// (wlru_cursor_test.go).
func (l *refLRU) pickVictim() *refEntry {
	lru := l.list.back()
	if l.window < 0 || l.dirty == nil {
		return lru
	}
	limit := int(l.window * float64(l.capacity))
	e := lru
	for i := 0; i < limit && e != &l.list.head; i++ {
		if !l.dirty(e.key) {
			return e
		}
		e = e.prev
	}
	return lru
}

func (l *refLRU) Insert(k Key, size int64) (Key, bool) {
	if _, ok := l.items[k]; ok {
		l.Access(k, size)
		return 0, false
	}
	var victim Key
	evicted := false
	var e *refEntry
	if len(l.items) >= l.capacity {
		v := l.pickVictim()
		l.list.remove(v)
		delete(l.items, v.key)
		victim, evicted = v.key, true
		e = v
		e.key = k
	} else {
		e = &refEntry{key: k}
	}
	l.items[k] = e
	l.list.pushFront(e)
	return victim, evicted
}

func (l *refLRU) AccessRun(k Key, n, size int64) { accessRunGeneric(l, k, n, size) }
func (l *refLRU) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(l, k, n, size, evicted)
}

func (l *refLRU) Keys() []Key {
	out := make([]Key, 0, len(l.items))
	for k := range l.items {
		out = append(out, k)
	}
	return out
}

// refAgingEntry is a node of the reference GreedyDual heap.
type refAgingEntry struct {
	key   Key
	freq  int64
	size  int64
	prio  float64
	seq   uint64
	index int
}

type refAgingHeap []*refAgingEntry

func (h refAgingHeap) Len() int { return len(h) }
func (h refAgingHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h refAgingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refAgingHeap) Push(x interface{}) {
	e := x.(*refAgingEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refAgingHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refAging is the reference LFUDA/GDSF: map residency + container/heap.
type refAging struct {
	capacity int
	items    map[Key]*refAgingEntry
	heap     refAgingHeap
	age      float64
	seq      uint64
	useSize  bool
}

func newRefAging(capacity int, useSize bool) *refAging {
	return &refAging{
		capacity: capacity,
		items:    make(map[Key]*refAgingEntry, capacity),
		useSize:  useSize,
	}
}

func (p *refAging) Len() int            { return len(p.items) }
func (p *refAging) Contains(k Key) bool { _, ok := p.items[k]; return ok }

func (p *refAging) priority(freq, size int64) float64 {
	const cost = 1.0
	if p.useSize && size > 0 {
		return cost*float64(freq)/float64(size) + p.age
	}
	return cost*float64(freq) + p.age
}

func (p *refAging) Access(k Key, size int64) {
	e, ok := p.items[k]
	if !ok {
		return
	}
	e.freq++
	if size > 0 {
		e.size = size
	}
	e.prio = p.priority(e.freq, e.size)
	heap.Fix(&p.heap, e.index)
}

func (p *refAging) Insert(k Key, size int64) (Key, bool) {
	if _, ok := p.items[k]; ok {
		p.Access(k, size)
		return 0, false
	}
	var victim Key
	evicted := false
	if len(p.items) >= p.capacity {
		min := heap.Pop(&p.heap).(*refAgingEntry)
		delete(p.items, min.key)
		p.age = min.prio
		victim, evicted = min.key, true
	}
	if size <= 0 {
		size = 1
	}
	p.seq++
	e := &refAgingEntry{key: k, freq: 1, size: size, seq: p.seq}
	e.prio = p.priority(e.freq, e.size)
	p.items[k] = e
	heap.Push(&p.heap, e)
	return victim, evicted
}

func (p *refAging) AccessRun(k Key, n, size int64) { accessRunGeneric(p, k, n, size) }
func (p *refAging) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(p, k, n, size, evicted)
}

func (p *refAging) Keys() []Key {
	out := make([]Key, 0, len(p.items))
	for k := range p.items {
		out = append(out, k)
	}
	return out
}

// refARC is the reference ARC: map residency + four pointer lists.
type refARC struct {
	capacity int
	p        int

	t1, t2, b1, b2 refList
	where          map[Key]*refARCEntry
}

type refARCEntry struct {
	refEntry
	list *refList
}

func newRefARC(capacity int) *refARC {
	a := &refARC{capacity: capacity, where: make(map[Key]*refARCEntry, 2*capacity)}
	a.t1.init()
	a.t2.init()
	a.b1.init()
	a.b2.init()
	return a
}

func (a *refARC) Len() int { return a.t1.size + a.t2.size }
func (a *refARC) P() int   { return a.p }

func (a *refARC) Contains(k Key) bool {
	e, ok := a.where[k]
	return ok && (e.list == &a.t1 || e.list == &a.t2)
}

func (a *refARC) Access(k Key, _ int64) {
	e, ok := a.where[k]
	if !ok || (e.list != &a.t1 && e.list != &a.t2) {
		return
	}
	e.list.remove(&e.refEntry)
	e.list = &a.t2
	a.t2.pushFront(&e.refEntry)
}

func (a *refARC) Insert(k Key, size int64) (Key, bool) {
	if e, ok := a.where[k]; ok {
		switch e.list {
		case &a.t1, &a.t2:
			a.Access(k, size)
			return 0, false
		case &a.b1:
			delta := 1
			if a.b1.size > 0 && a.b2.size/a.b1.size > 1 {
				delta = a.b2.size / a.b1.size
			}
			a.p = min(a.capacity, a.p+delta)
			victim, evicted := a.replace(false)
			e.list.remove(&e.refEntry)
			e.list = &a.t2
			a.t2.pushFront(&e.refEntry)
			return victim, evicted
		default:
			delta := 1
			if a.b2.size > 0 && a.b1.size/a.b2.size > 1 {
				delta = a.b1.size / a.b2.size
			}
			a.p = max(0, a.p-delta)
			victim, evicted := a.replace(true)
			e.list.remove(&e.refEntry)
			e.list = &a.t2
			a.t2.pushFront(&e.refEntry)
			return victim, evicted
		}
	}

	var victim Key
	evicted := false
	if a.t1.size+a.b1.size == a.capacity {
		if a.t1.size < a.capacity {
			a.dropLRU(&a.b1)
			victim, evicted = a.replace(false)
		} else {
			lru := a.t1.back()
			a.t1.remove(lru)
			delete(a.where, lru.key)
			victim, evicted = lru.key, true
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
	e := &refARCEntry{refEntry: refEntry{key: k}, list: &a.t1}
	a.where[k] = e
	a.t1.pushFront(&e.refEntry)
	return victim, evicted
}

func (a *refARC) AccessRun(k Key, n, size int64) { accessRunGeneric(a, k, n, size) }
func (a *refARC) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(a, k, n, size, evicted)
}

func (a *refARC) replace(inB2 bool) (Key, bool) {
	if a.t1.size >= 1 && ((inB2 && a.t1.size == a.p) || a.t1.size > a.p) {
		lru := a.t1.back()
		a.t1.remove(lru)
		e := a.where[lru.key]
		e.list = &a.b1
		a.b1.pushFront(lru)
		return lru.key, true
	}
	if a.t2.size >= 1 {
		lru := a.t2.back()
		a.t2.remove(lru)
		e := a.where[lru.key]
		e.list = &a.b2
		a.b2.pushFront(lru)
		return lru.key, true
	}
	return 0, false
}

func (a *refARC) dropLRU(l *refList) {
	lru := l.back()
	if lru == nil {
		return
	}
	l.remove(lru)
	delete(a.where, lru.key)
}

func (a *refARC) Keys() []Key {
	out := make([]Key, 0, a.Len())
	for k, e := range a.where {
		if e.list == &a.t1 || e.list == &a.t2 {
			out = append(out, k)
		}
	}
	return out
}
