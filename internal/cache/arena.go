package cache

// Slot arenas: the storage model shared by every policy in this package.
//
// Entries live in flat arrays indexed by int32 handles ("slots"), and
// the intrusive links between them (LRU lists, heap positions) are slot
// indices, not pointers. Residency is resolved by keyIndex, an
// open-addressing int64→int32 hash (power-of-two table, linear probing,
// backward-shift deletion). Compared to the previous map[Key]*entry
// design this removes per-key Go-map hashing from every probe, removes
// the per-entry heap objects (the GC no longer scans one pointer per
// cached block), and keeps each policy's whole metadata in a handful of
// cache-friendly contiguous allocations made once at construction.
// Nothing on the steady-state Access/Insert/Remove paths allocates.

// nilSlot is the null slot handle.
const nilSlot = int32(-1)

// idxCell is one keyIndex table cell: the key and its arena slot packed
// into 16 bytes, so a 64-byte cache line holds four consecutive cells.
// Keeping key and slot adjacent means every probe step — hash compare
// plus slot load — touches exactly one line; with keys and slots in
// separate arrays each step cost two.
type idxCell struct {
	key  Key
	slot int32
	_    int32 // pad to 16 bytes: cells never straddle a line boundary
}

// keyIndex is a fixed-size open-addressing hash from Key to arena slot.
// The table is sized at construction for the policy's maximum entry
// count at ≤ 0.5 load factor and never grows; cells with slot == nilSlot
// are empty. Deletion uses backward shifting (no tombstones), so probe
// chains never degrade under insert/evict churn.
type keyIndex struct {
	cells []idxCell
	mask  uint64
	shift uint8
}

// newKeyIndex sizes a table for at most entries live keys.
func newKeyIndex(entries int) keyIndex {
	size, bits := 8, 3
	for size < 2*entries {
		size *= 2
		bits++
	}
	x := keyIndex{
		cells: make([]idxCell, size),
		mask:  uint64(size - 1),
		shift: uint8(64 - bits),
	}
	for i := range x.cells {
		x.cells[i].slot = nilSlot
	}
	return x
}

// home is k's preferred cell: Fibonacci multiplicative hashing, taking
// the high (well-mixed) bits of the product.
func (x *keyIndex) home(k Key) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> x.shift
}

// get returns k's slot, or nilSlot.
func (x *keyIndex) get(k Key) int32 {
	i := x.home(k)
	for {
		c := &x.cells[i]
		if c.slot == nilSlot || c.key == k {
			return c.slot
		}
		i = (i + 1) & x.mask
	}
}

// findCell probes for k, returning in one pass either its cell and slot
// (resident) or the empty cell where k would be inserted and nilSlot.
// The returned cell stays valid only until the next index mutation.
func (x *keyIndex) findCell(k Key) (uint64, int32) {
	i := x.home(k)
	for {
		c := &x.cells[i]
		if c.slot == nilSlot || c.key == k {
			return i, c.slot
		}
		i = (i + 1) & x.mask
	}
}

// setCell fills an empty cell previously returned by findCell.
func (x *keyIndex) setCell(cell uint64, k Key, s int32) {
	x.cells[cell].key = k
	x.cells[cell].slot = s
}

// put inserts k → s, assuming k is absent.
func (x *keyIndex) put(k Key, s int32) {
	cell, _ := x.findCell(k)
	x.setCell(cell, k, s)
}

// del removes k if present, backward-shifting the tail of its probe
// chain so lookups never need tombstones.
func (x *keyIndex) del(k Key) {
	i := x.home(k)
	for {
		c := &x.cells[i]
		if c.slot == nilSlot {
			return // absent
		}
		if c.key == k {
			break
		}
		i = (i + 1) & x.mask
	}
	// Shift successors back over the hole: an entry at j (home h) may
	// move into the hole at i iff its probe path from h to j passes i.
	j := i
	for {
		j = (j + 1) & x.mask
		c := &x.cells[j]
		if c.slot == nilSlot {
			break
		}
		h := x.home(c.key)
		if (j-h)&x.mask >= (j-i)&x.mask {
			x.cells[i] = *c
			i = j
		}
	}
	x.cells[i].slot = nilSlot
}

// clear empties the table.
func (x *keyIndex) clear() {
	for i := range x.cells {
		x.cells[i].slot = nilSlot
	}
}

// slot is one arena entry of the intrusive lists shared by LRU, WLRU
// and ARC: the key plus prev/next slot handles.
type slot struct {
	key        Key
	prev, next int32
}

// arenaAlloc takes a slot from the freelist (threaded through
// slot.next) or the bump region, initializing it for k. Arenas are
// sized for their policy's maximum population, so the bump cursor
// never passes len(slots).
func arenaAlloc(slots []slot, free, used *int32, k Key) int32 {
	s := *free
	if s != nilSlot {
		*free = slots[s].next
	} else {
		s = *used
		*used++
	}
	slots[s] = slot{key: k, prev: nilSlot, next: nilSlot}
	return s
}

// arenaRelease returns a detached slot to the freelist.
func arenaRelease(slots []slot, free *int32, s int32) {
	slots[s].next = *free
	*free = s
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
