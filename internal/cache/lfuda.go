package cache

import "craid/internal/oamap"

// The per-entry state of the priority heap shared by LFUDA and GDSF is
// split hot/cold by access frequency. A heap fix runs O(log n) `less`
// comparisons and each one reads only (prio, seq) — so those two fields
// live alone in a 16-byte agingHot (four entries per cache line) instead
// of sharing a 48-byte struct with metadata the comparison never reads.
// agingHot is one hot arena entry: the policy's K_i plus the insertion
// sequence tie-break (older entries lose first).
type agingHot struct {
	prio float64
	seq  uint64
}

// agingCold is the cold side-array entry: fields touched at most once
// per access (freq/size feed the priority recompute) or only on
// insert/evict/iteration (key). The heap's sift loops never read it.
type agingCold struct {
	key  Key
	freq int64
	size int64
}

// agingPolicy implements the GreedyDual family: each entry carries a
// priority K_i; the minimum-K entry is evicted and its K becomes the
// running age factor L added to all future priorities (Arlitt et al.).
//
//	LFUDA: K_i = C_i·F_i + L         (C_i = 1)
//	GDSF:  K_i = C_i·F_i/S_i + L
//
// Entries live in flat hot/cold arenas indexed by the same int32 slot
// handle; the heap orders handles, and residency is resolved by the
// shared oamap.Map — no Go map, no per-entry heap objects. pos is a
// third side-array: the slot's heap index while live (written by swap,
// never read by less) and the freelist link while free. (prio, seq) is
// a total order, so the victim sequence is independent of the heap's
// internal layout and bit-identical to the container/heap-based
// reference.
type agingPolicy struct {
	name     string
	capacity int
	hot      []agingHot
	cold     []agingCold
	pos      []int32
	idx      *oamap.Map[int32]
	heap     []int32
	free     int32
	used     int32
	age      float64 // L
	seq      uint64
	useSize  bool
}

func newAgingPolicy(name string, capacity int, useSize bool) *agingPolicy {
	if capacity < 1 {
		panic("cache: capacity must be positive")
	}
	return &agingPolicy{
		name:     name,
		capacity: capacity,
		hot:      make([]agingHot, capacity),
		cold:     make([]agingCold, capacity),
		pos:      make([]int32, capacity),
		idx:      oamap.New[int32](capacity),
		heap:     make([]int32, 0, capacity),
		free:     nilSlot,
		useSize:  useSize,
	}
}

// NewLFUDA returns a Least Frequently Used with Dynamic Aging policy.
func NewLFUDA(capacity int) Policy { return newAgingPolicy("LFUDA", capacity, false) }

// NewGDSF returns a Greedy-Dual-Size with Frequency policy.
func NewGDSF(capacity int) Policy { return newAgingPolicy("GDSF", capacity, true) }

// Name implements Policy.
func (p *agingPolicy) Name() string { return p.name }

// Capacity implements Policy.
func (p *agingPolicy) Capacity() int { return p.capacity }

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
	ha, hb := &p.hot[a], &p.hot[b]
	if ha.prio != hb.prio {
		return ha.prio < hb.prio
	}
	return ha.seq < hb.seq
}

func (p *agingPolicy) swap(i, j int) {
	h := p.heap
	h[i], h[j] = h[j], h[i]
	p.pos[h[i]] = int32(i)
	p.pos[h[j]] = int32(j)
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
	p.pos[s] = int32(len(p.heap))
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

// removeAt deletes heap position i.
func (p *agingPolicy) removeAt(i int) {
	n := len(p.heap) - 1
	if i != n {
		p.swap(i, n)
		p.heap = p.heap[:n]
		p.fix(i)
	} else {
		p.heap = p.heap[:n]
	}
}

// Access implements Policy.
func (p *agingPolicy) Access(k Key, size int64) {
	s, ok := p.idx.Get(k)
	if !ok {
		return
	}
	c := &p.cold[s]
	c.freq++
	if size > 0 {
		c.size = size
	}
	p.hot[s].prio = p.priority(c.freq, c.size)
	p.fix(int(p.pos[s]))
}

// Insert implements Policy.
func (p *agingPolicy) Insert(k Key, size int64) (Key, bool) {
	cell, ok := p.idx.Probe(k)
	if ok {
		p.Access(k, size)
		return 0, false
	}
	var victim Key
	var s int32
	evicted := false
	if len(p.heap) >= p.capacity {
		min := p.popMin()
		vk := p.cold[min].key
		p.idx.Del(vk)
		p.age = p.hot[min].prio // dynamic aging: L becomes the evicted key's K
		victim, evicted = vk, true
		s = min // reuse the victim's slot for the newcomer
	} else {
		s = p.free
		if s != nilSlot {
			p.free = p.pos[s]
		} else {
			s = p.used
			p.used++
		}
	}
	if size <= 0 {
		size = 1
	}
	p.seq++
	p.cold[s] = agingCold{key: k, freq: 1, size: size}
	p.hot[s] = agingHot{prio: p.priority(1, size), seq: p.seq}
	if evicted {
		p.idx.Put(k, s) // re-probe: Del may have shifted the cell
	} else {
		p.idx.Fill(cell, k, s)
	}
	p.push(s)
	return victim, evicted
}

// AccessRun implements Policy via the generic per-key fallback (the
// priority heap re-sifts per key regardless of batching).
func (p *agingPolicy) AccessRun(k Key, n, size int64) { accessRunGeneric(p, k, n, size) }

// InsertRun implements Policy via the generic per-key fallback.
func (p *agingPolicy) InsertRun(k Key, n, size int64, evicted func(Key)) {
	insertRunGeneric(p, k, n, size, evicted)
}

// Remove implements Policy.
func (p *agingPolicy) Remove(k Key) bool {
	s, ok := p.idx.Get(k)
	if !ok {
		return false
	}
	p.removeAt(int(p.pos[s]))
	p.idx.Del(k)
	p.pos[s] = p.free // freelist link
	p.free = s
	return true
}

// Clear implements Policy.
func (p *agingPolicy) Clear() {
	p.idx.Clear()
	p.heap = p.heap[:0]
	p.free = nilSlot
	p.used = 0
	p.age = 0
}

// Keys implements Policy.
func (p *agingPolicy) Keys() []Key {
	out := make([]Key, 0, len(p.heap))
	for _, s := range p.heap {
		out = append(out, p.cold[s].key)
	}
	return out
}
