package cache

import "craid/internal/oamap"

// lruCore is the slot-arena recency engine shared by LRU and WLRU: a
// flat []slot arena, an oamap.Map resolving residency, and one intrusive
// recency list (front = MRU). The two policies differ only in victim
// choice: plain LRU takes the list's back, WLRU hangs its dirtyTail
// cursor here and is told whenever an entry leaves its list position.
type lruCore struct {
	capacity int
	slots    []slot
	idx      *oamap.Map[int32]
	list     slotList
	used     int32      // bump high-water into slots
	tail     *dirtyTail // WLRU's victim cursor; nil for plain LRU
}

func (c *lruCore) initCore(capacity int) {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	c.capacity = capacity
	c.slots = make([]slot, capacity)
	c.idx = oamap.New[int32](capacity)
	c.list.init()
}

// alloc takes the next slot of the bump region. Only an insert below
// capacity allocates — an evicting one reuses the victim's slot — so
// the arena never grows past capacity.
func (c *lruCore) alloc(k Key) int32 {
	s := c.used
	c.used++
	c.slots[s] = slot{key: k, prev: nilSlot, next: nilSlot}
	return s
}

// Len implements Policy.
func (c *lruCore) Len() int { return c.list.size }

// Contains implements Policy.
func (c *lruCore) Contains(k Key) bool {
	_, ok := c.idx.Get(k)
	return ok
}

// victim picks the entry the next insert displaces.
func (c *lruCore) victim() int32 {
	if c.tail == nil {
		return c.list.back()
	}
	return c.tail.pick(c)
}

// unlink detaches s from the recency list.
func (c *lruCore) unlink(s int32) {
	if c.tail != nil {
		c.tail.leave(c.slots, s)
	}
	c.list.remove(c.slots, s)
}

// touch moves s to the MRU position.
func (c *lruCore) touch(s int32) {
	if c.list.head == s {
		return
	}
	c.unlink(s)
	c.list.pushFront(c.slots, s)
}

// Access implements Policy.
func (c *lruCore) Access(k Key, _ int64) {
	if s, ok := c.idx.Get(k); ok {
		c.touch(s)
	}
}

// Insert implements Policy.
func (c *lruCore) Insert(k Key, size int64) (Key, bool) {
	cell, ok := c.idx.Probe(k)
	if ok {
		c.touch(*c.idx.At(cell))
		return 0, false
	}
	if c.list.size >= c.capacity {
		v := c.victim()
		vk := c.slots[v].key
		c.unlink(v)
		c.idx.Del(vk)
		c.slots[v].key = k // reuse the victim's slot for the newcomer
		c.idx.Put(k, v)    // re-probe: Del may have shifted the cell
		c.list.pushFront(c.slots, v)
		return vk, true
	}
	s := c.alloc(k)
	c.idx.Fill(cell, k, s)
	c.list.pushFront(c.slots, s)
	return 0, false
}

// AccessRun implements Policy via the per-key loop.
func (c *lruCore) AccessRun(k Key, n, size int64) { accessRunGeneric(c, k, n, size) }

// InsertRun implements Policy via the per-key loop.
func (c *lruCore) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(c, k, n, size, evicted)
}

// Keys implements Policy.
func (c *lruCore) Keys() []Key {
	out := make([]Key, 0, c.list.size)
	for s := c.list.head; s != nilSlot; s = c.slots[s].next {
		out = append(out, c.slots[s].key)
	}
	return out
}

// LRU evicts the least recently used entry.
type LRU struct{ lruCore }

// NewLRU returns an LRU policy holding at most capacity entries.
func NewLRU(capacity int) *LRU {
	l := &LRU{}
	l.initCore(capacity)
	return l
}

// WLRU is the paper's Weighted LRU: LRU that prefers evicting a clean
// entry, considering at most w·capacity candidates from the LRU end
// before falling back to the plain LRU victim (§4.1). Evicting clean
// entries saves CRAID the four parity I/Os a dirty write-back costs.
type WLRU struct {
	lruCore
	cursor dirtyTail
}

// NewWLRU returns a WLRU policy with scan window w (fraction of
// capacity, typically 0.5). dirty may be nil, meaning no entry is ever
// dirty (WLRU then degenerates to LRU); otherwise it must honour the
// Config.Dirty contract.
func NewWLRU(capacity int, w float64, dirty DirtyFunc) *WLRU {
	if w < 0 || w > 1 {
		panic("cache: WLRU window must be in [0,1]")
	}
	l := &WLRU{}
	l.initCore(capacity)
	if dirty != nil {
		l.cursor = dirtyTail{
			dirty: dirty,
			limit: int(w * float64(capacity)),
			edge:  nilSlot,
			known: make([]uint64, (capacity+63)/64),
		}
		l.tail = &l.cursor
	}
	return l
}

// dirtyTail is WLRU's resumable victim cursor. The paper's victim scan
// walks from the LRU end toward the front, up to limit entries, and
// takes the first clean one. Restarting that walk at the LRU end on
// every eviction re-probes the same dirty entries each time; dirtyTail
// remembers them instead.
//
// Invariant: the last n entries of the recency list — edge back to the
// LRU end — have each been probed dirty since they last moved, and
// exactly those have their known bit set. Because a resident key never
// goes dirty→clean (the Config.Dirty contract) a full rescan would find
// all of them dirty again, so pick resumes at the entry in front of
// edge and returns what the full scan would. n moves only when a scan
// extends the run (n++) or a known entry leaves its position — an
// access or an eviction, which leave observes (n--). New and
// re-accessed entries arrive at the front, outside the run, so each
// entry is probed once per stay in the tail.
type dirtyTail struct {
	dirty DirtyFunc
	limit int      // window·capacity: how many LRU-end entries a scan may consider
	edge  int32    // front-most known-dirty entry; nilSlot when n == 0
	n     int      // length of the known-dirty run at the LRU end
	known []uint64 // by slot: entry belongs to the run
}

func (t *dirtyTail) isKnown(s int32) bool { return t.known[s>>6]&(1<<(s&63)) != 0 }

// pick returns the first clean entry among the limit least recent, or
// the LRU entry when all of them are dirty.
func (t *dirtyTail) pick(c *lruCore) int32 {
	lru := c.list.back()
	s := lru
	if t.n > 0 {
		s = c.slots[t.edge].prev
	}
	for t.n < t.limit && s != nilSlot {
		if !t.dirty(c.slots[s].key) {
			return s
		}
		t.known[s>>6] |= 1 << (s & 63)
		t.edge = s
		t.n++
		s = c.slots[s].prev
	}
	return lru
}

// leave is called before s is unlinked from the list.
func (t *dirtyTail) leave(slots []slot, s int32) {
	if t.n == 0 || !t.isKnown(s) {
		return
	}
	t.known[s>>6] &^= 1 << (s & 63)
	t.n--
	if s == t.edge {
		t.edge = slots[s].next
	}
}
