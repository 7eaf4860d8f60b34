package cache

import "craid/internal/oamap"

// agingEntry is one arena entry of the priority heap shared by LFUDA
// and GDSF: the policy's K_i, the insertion sequence tie-break (older
// entries lose first), the inputs of the priority recompute, and the
// entry's heap index.
type agingEntry struct {
	prio float64
	seq  uint64
	key  Key
	freq int64
	size int64
	pos  int32 // index in heap, written by swap
}

// agingPolicy implements the GreedyDual family: each entry carries a
// priority K_i; the minimum-K entry is evicted and its K becomes the
// running age factor L added to all future priorities (Arlitt et al.).
//
//	LFUDA: K_i = C_i·F_i + L         (C_i = 1)
//	GDSF:  K_i = C_i·F_i/S_i + L
//
// Entries live in one flat arena indexed by int32 slot handles; the
// heap orders handles, and residency is resolved by the shared
// oamap.Map — no Go map, no per-entry heap objects. A slot is never
// freed: an evicting insert hands the victim's slot to the newcomer.
// (prio, seq) is a total order, so the victim sequence is independent
// of the heap's internal layout and bit-identical to the
// container/heap-based reference.
type agingPolicy struct {
	capacity int
	entries  []agingEntry
	idx      *oamap.Map[int32]
	heap     []int32
	age      float64 // L
	seq      uint64
	useSize  bool
}

func newAgingPolicy(capacity int, useSize bool) *agingPolicy {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	return &agingPolicy{
		capacity: capacity,
		entries:  make([]agingEntry, capacity),
		idx:      oamap.New[int32](capacity),
		heap:     make([]int32, 0, capacity),
		useSize:  useSize,
	}
}

// NewLFUDA returns a Least Frequently Used with Dynamic Aging policy.
func NewLFUDA(capacity int) Policy { return newAgingPolicy(capacity, false) }

// NewGDSF returns a Greedy-Dual-Size with Frequency policy.
func NewGDSF(capacity int) Policy { return newAgingPolicy(capacity, true) }

// Len implements Policy.
func (p *agingPolicy) Len() int { return len(p.heap) }

// Contains implements Policy.
func (p *agingPolicy) Contains(k Key) bool {
	_, ok := p.idx.Get(k)
	return ok
}

func (p *agingPolicy) priority(freq, size int64) float64 {
	const cost = 1.0 // C_i: uniform retrieval cost for block storage
	if p.useSize && size > 0 {
		return cost*float64(freq)/float64(size) + p.age
	}
	return cost*float64(freq) + p.age
}

// --- int32 min-heap over (prio, seq) ---

func (p *agingPolicy) less(a, b int32) bool {
	ea, eb := &p.entries[a], &p.entries[b]
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}

func (p *agingPolicy) swap(i, j int) {
	h := p.heap
	h[i], h[j] = h[j], h[i]
	p.entries[h[i]].pos = int32(i)
	p.entries[h[j]].pos = int32(j)
}

func (p *agingPolicy) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(p.heap[i], p.heap[parent]) {
			break
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *agingPolicy) down(i int) bool {
	start, n := i, len(p.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && p.less(p.heap[r], p.heap[l]) {
			m = r
		}
		if !p.less(p.heap[m], p.heap[i]) {
			break
		}
		p.swap(i, m)
		i = m
	}
	return i > start
}

func (p *agingPolicy) fix(i int) {
	if !p.down(i) {
		p.up(i)
	}
}

func (p *agingPolicy) push(s int32) {
	p.entries[s].pos = int32(len(p.heap))
	p.heap = append(p.heap, s)
	p.up(len(p.heap) - 1)
}

// popMin removes and returns the minimum-priority slot.
func (p *agingPolicy) popMin() int32 {
	min := p.heap[0]
	n := len(p.heap) - 1
	p.swap(0, n)
	p.heap = p.heap[:n]
	if n > 0 {
		p.down(0)
	}
	return min
}

// Access implements Policy.
func (p *agingPolicy) Access(k Key, size int64) {
	s, ok := p.idx.Get(k)
	if !ok {
		return
	}
	e := &p.entries[s]
	e.freq++
	if size > 0 {
		e.size = size
	}
	e.prio = p.priority(e.freq, e.size)
	p.fix(int(e.pos))
}

// Insert implements Policy.
func (p *agingPolicy) Insert(k Key, size int64) (Key, bool) {
	cell, ok := p.idx.Probe(k)
	if ok {
		p.Access(k, size)
		return 0, false
	}
	var victim Key
	evicted := false
	s := int32(len(p.heap)) // below capacity, live slots are exactly 0..len-1
	if len(p.heap) >= p.capacity {
		min := p.popMin()
		vk := p.entries[min].key
		p.idx.Del(vk)
		p.age = p.entries[min].prio // dynamic aging: L becomes the evicted key's K
		victim, evicted = vk, true
		s = min // reuse the victim's slot for the newcomer
	}
	if size <= 0 {
		size = 1
	}
	p.seq++
	p.entries[s] = agingEntry{prio: p.priority(1, size), seq: p.seq, key: k, freq: 1, size: size}
	if evicted {
		p.idx.Put(k, s) // re-probe: Del may have shifted the cell
	} else {
		p.idx.Fill(cell, k, s)
	}
	p.push(s)
	return victim, evicted
}

// AccessRun implements Policy via the per-key loop.
func (p *agingPolicy) AccessRun(k Key, n, size int64) { accessRunGeneric(p, k, n, size) }

// InsertRun implements Policy via the per-key loop.
func (p *agingPolicy) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(p, k, n, size, evicted)
}

// Keys implements Policy.
func (p *agingPolicy) Keys() []Key {
	out := make([]Key, 0, len(p.heap))
	for _, s := range p.heap {
		out = append(out, p.entries[s].key)
	}
	return out
}
