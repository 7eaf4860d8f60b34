package cache

// Slot arenas: the storage model shared by every policy in this package.
//
// Entries live in flat arrays indexed by int32 handles ("slots"), and
// the intrusive links between them (LRU lists, heap positions) are slot
// indices, not pointers. Residency is resolved by an oamap.Map from key
// to slot — the open-addressing table the mapping cache is built on too
// — sized once for the policy's maximum population, so it never grows.
// Compared to a map[Key]*entry design this removes per-key Go-map
// hashing from every probe, removes the per-entry heap objects (the GC
// does not scan one pointer per cached block), and keeps each policy's
// whole metadata in a handful of cache-friendly contiguous allocations
// made once at construction. Nothing on the steady-state Access/Insert
// paths allocates.

// nilSlot is the null slot handle.
const nilSlot = int32(-1)

// slot is one arena entry of the intrusive lists shared by LRU, WLRU
// and ARC: the key plus prev/next slot handles.
type slot struct {
	key        Key
	prev, next int32
}

// slotList is a doubly-linked list threaded through a slot arena;
// front = MRU. Every operation takes the arena explicitly so multiple
// lists (ARC's T1/T2/B1/B2) can share one.
type slotList struct {
	head, tail int32
	size       int
}

func (l *slotList) init() { l.head, l.tail, l.size = nilSlot, nilSlot, 0 }

func (l *slotList) pushFront(slots []slot, s int32) {
	slots[s].prev = nilSlot
	slots[s].next = l.head
	if l.head != nilSlot {
		slots[l.head].prev = s
	} else {
		l.tail = s
	}
	l.head = s
	l.size++
}

func (l *slotList) remove(slots []slot, s int32) {
	p, n := slots[s].prev, slots[s].next
	if p != nilSlot {
		slots[p].next = n
	} else {
		l.head = n
	}
	if n != nilSlot {
		slots[n].prev = p
	} else {
		l.tail = p
	}
	slots[s].prev, slots[s].next = nilSlot, nilSlot
	l.size--
}

// unlinkChain detaches the already-linked segment first..last
// (front-to-back order) without touching the segment's inner links.
func (l *slotList) unlinkChain(slots []slot, first, last int32, n int) {
	p, nx := slots[first].prev, slots[last].next
	if p != nilSlot {
		slots[p].next = nx
	} else {
		l.head = nx
	}
	if nx != nilSlot {
		slots[nx].prev = p
	} else {
		l.tail = p
	}
	l.size -= n
}

// pushFrontChain splices the pre-linked chain first..last (front-to-back
// order, n slots) at the front in one operation.
func (l *slotList) pushFrontChain(slots []slot, first, last int32, n int) {
	slots[first].prev = nilSlot
	slots[last].next = l.head
	if l.head != nilSlot {
		slots[l.head].prev = last
	} else {
		l.tail = last
	}
	l.head = first
	l.size += n
}

// back returns the LRU slot, or nilSlot when empty.
func (l *slotList) back() int32 { return l.tail }
