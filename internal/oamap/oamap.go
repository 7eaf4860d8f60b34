// Package oamap is the repository's one open-addressing hash table: int64
// keys (block addresses) to a small value V, in one flat array of cells.
//
// Fibonacci multiplicative hashing picks the home cell, collisions probe
// linearly, the table stays at or below half full, and deletion shifts
// the tail of the probe chain back over the hole — no tombstones, so
// chains never degrade under insert/evict churn. Key, value and the
// occupancy flag share one cell, so a probe step touches one cache line.
//
// Both block-keyed indexes of the monitor are this table: the mapping
// cache (V = cache address + dirty flag, grows with the mapped set) and
// every replacement policy's residency index (V = arena slot, sized once
// for the policy's capacity and never grown). Nothing here allocates
// except New and a doubling; a Map is confined to one goroutine.
package oamap

import "iter"

type cell[V any] struct {
	key  int64
	val  V
	full bool
}

// Map is the table. Make one with New; the zero value is not usable.
type Map[V any] struct {
	cells []cell[V]
	mask  uint64
	shift uint8
	n     int
}

// New returns a map that holds entries keys before its first doubling.
func New[V any](entries int) *Map[V] {
	m := &Map[V]{}
	m.alloc(entries)
	return m
}

// alloc installs an empty power-of-two cell array of at least 2·entries.
func (m *Map[V]) alloc(entries int) {
	size, bits := 8, 3
	for size < 2*entries {
		size *= 2
		bits++
	}
	m.cells = make([]cell[V], size)
	m.mask = uint64(size - 1)
	m.shift = uint8(64 - bits)
}

// home is k's preferred cell: the high (well-mixed) bits of the product.
func (m *Map[V]) home(k int64) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> m.shift
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.n }

// Probe finds k in one pass: the cell holding it and true, or the empty
// cell where k belongs and false. A cell index is valid only until the
// next Put, Fill or Del.
func (m *Map[V]) Probe(k int64) (int, bool) {
	i := m.home(k)
	for {
		c := &m.cells[i]
		if !c.full || c.key == k {
			return int(i), c.full
		}
		i = (i + 1) & m.mask
	}
}

// At returns the value in an occupied cell, for reading or updating in
// place.
func (m *Map[V]) At(at int) *V { return &m.cells[at].val }

// Get returns k's value.
func (m *Map[V]) Get(k int64) (v V, ok bool) {
	i, ok := m.Probe(k)
	return m.cells[i].val, ok // an empty cell holds the zero V
}

// Fill stores k → v in the empty cell Probe just returned for k, which
// saves find-or-insert callers the second probe, and doubles the table
// if that leaves it more than half full.
func (m *Map[V]) Fill(at int, k int64, v V) {
	m.cells[at] = cell[V]{key: k, val: v, full: true}
	if m.n++; 2*m.n > len(m.cells) {
		m.grow()
	}
}

// Put stores k → v, assuming k is absent.
func (m *Map[V]) Put(k int64, v V) {
	at, _ := m.Probe(k)
	m.Fill(at, k, v)
}

// Del removes k and returns its value; ok reports whether it was present.
func (m *Map[V]) Del(k int64) (v V, ok bool) {
	at, ok := m.Probe(k)
	if !ok {
		return v, false
	}
	i := uint64(at)
	v = m.cells[i].val
	// Shift successors back over the hole: an entry at j (home h) may
	// move into the hole at i iff its probe path from h to j passes i.
	j := i
	for {
		j = (j + 1) & m.mask
		c := &m.cells[j]
		if !c.full {
			break
		}
		if h := m.home(c.key); (j-h)&m.mask >= (j-i)&m.mask {
			m.cells[i] = *c
			i = j
		}
	}
	m.cells[i] = cell[V]{}
	m.n--
	return v, true
}

// Clear removes every key and keeps the cell array.
func (m *Map[V]) Clear() {
	clear(m.cells)
	m.n = 0
}

// All iterates over the entries in table order, which is arbitrary; the
// map must not change during the iteration.
func (m *Map[V]) All() iter.Seq2[int64, V] {
	return func(yield func(int64, V) bool) {
		for i := range m.cells {
			if c := &m.cells[i]; c.full && !yield(c.key, c.val) {
				return
			}
		}
	}
}

// grow doubles the cell array and rehashes.
func (m *Map[V]) grow() {
	old := m.cells
	m.alloc(len(old)) // 2·len(old) cells
	for i := range old {
		if c := &old[i]; c.full {
			at, _ := m.Probe(c.key)
			m.cells[at] = *c
		}
	}
}
