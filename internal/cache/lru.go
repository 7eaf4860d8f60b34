package cache

import "craid/internal/oamap"

// lruCore is the slot-arena recency engine shared by LRU and WLRU: a
// flat []slot arena, an oamap.Map resolving residency, and one intrusive
// recency list (front = MRU). The two policies differ only in victim
// choice: plain LRU takes the list's back, WLRU hangs its dirtyTail
// cursor here and is told whenever an entry leaves its list position.
//
// Run-native hot loops: AccessRun resolves a whole run with ONE index
// probe when the run's entries already form a consecutive-key chain in
// the list (the layout a prior InsertRun or AccessRun of the same run
// leaves behind — the steady state of extent-granularity traffic), and
// splices the chain to the front in one list operation. InsertRun links
// each maximal segment of fresh, non-evicting newborns into a private
// chain and splices it once. Both degrade gracefully to the per-key
// loop, which is the property-tested reference semantics.
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

// AccessRun implements Policy. The per-key loop's net effect on a fully
// resident consecutive run is "move the chain k+n-1 … k to the front";
// when the entries already sit in exactly that chain order, one index
// probe finds the head and one splice commits the whole run.
func (c *lruCore) AccessRun(k Key, n, size int64) {
	if n > 1 {
		if first, ok := c.idx.Get(k + n - 1); ok {
			last := first
			for i := int64(1); i < n; i++ {
				last = c.slots[last].next
				if last == nilSlot || c.slots[last].key != k+n-1-i {
					ok = false
					break
				}
			}
			if ok {
				if c.list.head != first { // already MRU: the loop is a no-op
					if c.tail != nil {
						c.tail.leaveChain(c.slots, first, last)
					}
					c.list.unlinkChain(c.slots, first, last, int(n))
					c.list.pushFrontChain(c.slots, first, last, int(n))
				}
				return
			}
		}
	}
	for i := int64(0); i < n; i++ {
		if s, ok := c.idx.Get(k + i); ok {
			c.touch(s)
		}
	}
}

// InsertRun implements Policy: maximal segments of fresh, non-evicting
// newborns are linked into a private chain (front-to-back = descending
// key, the order a loop of Insert leaves at the list front) and spliced
// in one operation; resident keys and evicting inserts commit the
// pending segment first and then follow the per-key semantics exactly,
// so the victim sequence is identical to a loop of Insert.
func (c *lruCore) InsertRun(k Key, n, size int64, evicted func(Key)) {
	segFirst, segLast := nilSlot, nilSlot
	segN := 0
	for i := int64(0); i < n; i++ {
		key := k + i
		cell, ok := c.idx.Probe(key)
		if ok {
			// Resident → Access; the pending newborns were inserted
			// earlier in the loop, so they commit before this access.
			if segFirst != nilSlot {
				c.list.pushFrontChain(c.slots, segFirst, segLast, segN)
				segFirst, segLast, segN = nilSlot, nilSlot, 0
			}
			c.touch(*c.idx.At(cell))
			continue
		}
		if c.list.size+segN >= c.capacity {
			// This insert evicts. Commit the pending segment first: the
			// victim scan must see the earlier newborns (it may even
			// choose one, exactly as the per-key loop can).
			if segFirst != nilSlot {
				c.list.pushFrontChain(c.slots, segFirst, segLast, segN)
				segFirst, segLast, segN = nilSlot, nilSlot, 0
			}
			v := c.victim()
			vk := c.slots[v].key
			c.unlink(v)
			c.idx.Del(vk)
			c.slots[v].key = key
			c.idx.Put(key, v)
			c.list.pushFront(c.slots, v)
			evicted(vk)
			continue
		}
		// Fresh, no eviction: chain the newborn ahead of its elders.
		s := c.alloc(key)
		c.idx.Fill(cell, key, s)
		if segFirst == nilSlot {
			segLast = s
		} else {
			c.slots[s].next = segFirst
			c.slots[segFirst].prev = s
		}
		segFirst = s
		segN++
	}
	if segFirst != nilSlot {
		c.list.pushFrontChain(c.slots, segFirst, segLast, segN)
	}
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
// extends the run (n++) or a known entry leaves its position — access,
// eviction, a chain splice — which leave/leaveChain observe
// (n--). New and re-accessed entries arrive at the front, outside the
// run, so each entry is probed once per stay in the tail.
type dirtyTail struct {
	dirty DirtyFunc
	limit int      // window·capacity: how many LRU-end entries a scan may consider
	edge  int32    // front-most known-dirty entry; nilSlot when n == 0
	n     int      // length of the known-dirty run at the LRU end
	known []uint64 // by slot: entry belongs to the run
}

func (t *dirtyTail) isKnown(s int32) bool { return t.known[s>>6]&(1<<(s&63)) != 0 }

// forget takes s, a member, out of the run; the caller moves edge.
func (t *dirtyTail) forget(s int32) {
	t.known[s>>6] &^= 1 << (s & 63)
	t.n--
}

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
	t.forget(s)
	if s == t.edge {
		t.edge = slots[s].next
	}
}

// leaveChain is leave for the linked segment first..last (front-to-back
// order), called before it is unlinked. The run is a suffix of the
// list, so its members within the segment are a suffix of the segment:
// walk from last toward first until an entry outside the run.
func (t *dirtyTail) leaveChain(slots []slot, first, last int32) {
	if t.n == 0 {
		return
	}
	for s := last; t.isKnown(s); s = slots[s].prev {
		t.forget(s)
		if s == t.edge {
			t.edge = slots[last].next
			return
		}
		if s == first {
			return
		}
	}
}
