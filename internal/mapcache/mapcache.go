// Package mapcache implements CRAID's mapping cache (paper §4.2): an
// in-memory balanced search structure translating block addresses in
// the archive partition (P_A) to their cached copies in the cache
// partition (P_C), with a dirty flag per entry.
//
// The paper specifies a tree-based structure with O(log k) lookups and
// quantifies memory as ~0.58% of the cache partition size (4-byte LBAs,
// a dirty bit and an 8-byte pointer per entry, 4 KiB blocks); Bytes()
// reproduces that accounting. Failure resilience comes from a
// persistent log of dirty translations (Log/Recover): after a crash,
// dirty cached copies — the only ones that differ from the original
// data — can be located and recovered, while clean entries are simply
// invalidated.
//
// The structure is one AVL tree keyed by archive address (avl.go) with a
// node freelist, plus an O(1) dirty-membership set (dirtyset.go) kept in
// step with the dirty flags at the same points that write the log.
package mapcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Mapping is one translation entry.
type Mapping struct {
	Orig  int64 // LBA in the archive partition
	Cache int64 // LBA of the copy in the cache partition
	Dirty bool  // cached copy differs from the original
}

// Table is the mapping cache: one AVL tree over archive addresses. The
// zero value is an empty table ready to use. A Table is confined to one
// goroutine, like the CRAID controller and sim.Engine that drive it.
type Table struct {
	root *node
	size int
	log  io.Writer // optional persistent dirty log

	// free chains removed nodes through right: the monitor continuously
	// evicts and re-inserts mappings, so steady-state churn allocates
	// nothing.
	free *node

	// replaced/existed are the last insert descent's scratch: Insert
	// learns whether it replaced a dirty mapping without a second
	// descent.
	replaced Mapping
	existed  bool

	// logRec is appendLog's encode scratch. A local array would escape
	// to the heap at the io.Writer call — one allocation per logged
	// transition; Write contracts not to retain the slice, so reusing
	// one buffer is safe.
	logRec [recordSize]byte

	// dirty is the O(1) membership set behind IsDirty: the Orig of
	// every mapping whose Dirty flag is set. Maintained at the same
	// choke points that write the persistent dirty log.
	dirty dirtySet
}

// New returns an empty table.
func New() *Table { return &Table{} }

// SetLog directs persistent logging of dirty-state transitions to w.
// Passing nil disables logging.
func (t *Table) SetLog(w io.Writer) { t.log = w }

// Len returns the number of mappings.
func (t *Table) Len() int { return t.size }

// Bytes returns the worst-case memory footprint per the paper's
// accounting: 4 bytes per LBA (two LBAs), 1 dirty bit, and 8 bytes of
// structure pointer per entry.
func (t *Table) Bytes() int64 {
	const perEntryBits = 2*32 + 1 + 64
	return (int64(t.size)*perEntryBits + 7) / 8
}

// find returns the node holding orig, or nil.
func (t *Table) find(orig int64) *node {
	n := t.root
	for n != nil {
		switch {
		case orig < n.m.Orig:
			n = n.left
		case orig > n.m.Orig:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Lookup returns the mapping for orig.
func (t *Table) Lookup(orig int64) (Mapping, bool) {
	if n := t.find(orig); n != nil {
		return n.m, true
	}
	return Mapping{}, false
}

// IsDirty reports whether orig is mapped with its dirty flag set, in
// O(1) via the dirty-membership set (equivalent to Lookup + Dirty,
// property-pinned by the table tests): the eviction path probes
// dirtiness for a window of victim candidates per eviction, and a tree
// descent per probe dominated whole replays before this existed.
func (t *Table) IsDirty(orig int64) bool { return t.dirty.has(orig) }

// Insert adds or replaces the mapping for m.Orig.
func (t *Table) Insert(m Mapping) {
	t.existed = false
	t.root = t.insert(t.root, m)
	switch {
	case m.Dirty:
		t.dirty.add(m.Orig)
		t.appendLog(logInsert, m)
	case t.existed && t.replaced.Dirty:
		// A clean copy replaced a dirty one: the dirty state is gone.
		t.dirty.del(m.Orig)
		t.appendLog(logClean, Mapping{Orig: m.Orig})
	}
}

// InsertRun adds or replaces the n mappings orig+i → cache+i for
// 0 <= i < n, all with the same dirty flag — equivalent to a loop of
// Insert over consecutive addresses.
func (t *Table) InsertRun(orig, cache, n int64, dirty bool) {
	for i := int64(0); i < n; i++ {
		t.Insert(Mapping{Orig: orig + i, Cache: cache + i, Dirty: dirty})
	}
}

// Remove deletes the mapping for orig and returns it; ok reports
// whether it existed.
func (t *Table) Remove(orig int64) (m Mapping, ok bool) {
	t.root, m, ok = t.remove(t.root, orig)
	if ok {
		t.size--
		t.dirty.del(orig)
		t.appendLog(logRemove, Mapping{Orig: orig})
	}
	return m, ok
}

// seek descends to orig, pushing onto stack the nodes an in-order walk
// from orig still has to visit, nearest on top: the node holding orig
// itself if it is mapped, and every ancestor the search left by going
// left.
func (t *Table) seek(orig int64, stack []*node) []*node {
	cur := t.root
	for cur != nil {
		switch {
		case orig < cur.m.Orig:
			stack = append(stack, cur)
			cur = cur.left
		case orig > cur.m.Orig:
			cur = cur.right
		default:
			return append(stack, cur)
		}
	}
	return stack
}

// walkStack fits the AVL height of ~2^33 entries.
type walkStack [48]*node

// RemoveRun deletes every mapping in [orig, orig+n), returning how many
// existed — equivalent to a loop of Remove over the range, but existing
// keys are discovered by successor walking so sparse ranges don't pay a
// descent per absent address.
func (t *Table) RemoveRun(orig, n int64) int64 {
	end := orig + n
	var removed int64
	for orig < end {
		// Collect the next batch of present keys (removal rebalances
		// the tree, invalidating any in-flight iterator).
		var keys [64]int64
		got := 0
		var buf walkStack
		stack := t.seek(orig, buf[:0])
		for len(stack) > 0 && got < len(keys) {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur.m.Orig >= end {
				break
			}
			keys[got] = cur.m.Orig
			got++
			for next := cur.right; next != nil; next = next.left {
				stack = append(stack, next)
			}
		}
		if got == 0 {
			break
		}
		for _, k := range keys[:got] {
			if _, ok := t.Remove(k); ok {
				removed++
			}
		}
		orig = keys[got-1] + 1
	}
	return removed
}

// setDirty flips n's dirty flag to dirty, logging the transition so
// dirty blocks stay recoverable.
func (t *Table) setDirty(n *node, dirty bool) {
	if n.m.Dirty == dirty {
		return
	}
	n.m.Dirty = dirty
	if dirty {
		t.dirty.add(n.m.Orig)
		t.appendLog(logInsert, n.m)
	} else {
		t.dirty.del(n.m.Orig)
		t.appendLog(logClean, Mapping{Orig: n.m.Orig})
	}
}

// SetDirty updates the dirty flag for orig, reporting whether the entry
// exists. Transitions are logged so dirty blocks are recoverable.
func (t *Table) SetDirty(orig int64, dirty bool) bool {
	n := t.find(orig)
	if n != nil {
		t.setDirty(n, dirty)
	}
	return n != nil
}

// SetDirtyRun updates the dirty flag of every existing mapping in
// [orig, orig+n) — equivalent to a loop of SetDirty — using one descent
// plus successor walking. It returns how many mappings were found.
// Transitions are logged so dirty blocks stay recoverable.
func (t *Table) SetDirtyRun(orig, n int64, dirty bool) int64 {
	end := orig + n
	var buf walkStack
	stack := t.seek(orig, buf[:0])
	var found int64
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.m.Orig >= end {
			break
		}
		found++
		t.setDirty(cur, dirty)
		for next := cur.right; next != nil; next = next.left {
			stack = append(stack, next)
		}
	}
	return found
}

// LookupRun inspects the run starting at orig in a single descent.
//
// If orig is mapped it returns its mapping, ok=true, and n = the length
// (capped at max) of the contiguous run of mappings starting at orig
// whose Orig AND Cache addresses both advance by one per entry — the
// extent a redirector can serve with one cache-partition I/O.
//
// If orig is unmapped it returns ok=false and n = the number of
// consecutive unmapped addresses starting at orig (capped at max), i.e.
// the gap to the next mapping.
//
// The run is discovered by walking in-order successors from the initial
// descent's search path, so a whole extent costs one O(log k) descent
// plus O(n) amortized pointer chasing instead of n descents.
func (t *Table) LookupRun(orig, max int64) (m Mapping, n int64, ok bool) {
	if max <= 0 {
		return Mapping{}, 0, false
	}
	var buf walkStack
	stack := t.seek(orig, buf[:0])
	if len(stack) == 0 {
		return Mapping{}, max, false
	}
	cur := stack[len(stack)-1]
	stack = stack[:len(stack)-1]
	if cur.m.Orig != orig {
		// orig is unmapped; its successor bounds the gap.
		if gap := cur.m.Orig - orig; gap < max {
			return Mapping{}, gap, false
		}
		return Mapping{}, max, false
	}
	m = cur.m
	n = 1
	prev := cur.m
	for n < max {
		// Advance to the in-order successor: leftmost of the right
		// subtree, else the nearest stacked ancestor.
		for next := cur.right; next != nil; next = next.left {
			stack = append(stack, next)
		}
		if len(stack) == 0 {
			break
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur.m.Orig != prev.Orig+1 || cur.m.Cache != prev.Cache+1 {
			break
		}
		prev = cur.m
		n++
	}
	return m, n, true
}

// Walk visits all mappings in ascending Orig order. Returning false
// from fn stops the walk.
func (t *Table) Walk(fn func(Mapping) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.m) && walk(n.right)
	}
	walk(t.root)
}

// DirtyMappings returns all dirty entries in ascending Orig order.
func (t *Table) DirtyMappings() []Mapping {
	var out []Mapping
	t.Walk(func(m Mapping) bool {
		if m.Dirty {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Clear removes all mappings. The nodes go to the table's own freelist
// rather than the garbage collector: a crash-restart or an invalidating
// expansion refills the tree at once, and would otherwise re-allocate it
// node by node.
func (t *Table) Clear() {
	t.recycle(t.root)
	t.root = nil
	t.size = 0
	t.dirty.clear()
}

// --- persistent dirty log ---

// Log record kinds.
const (
	logInsert byte = 1 // mapping became dirty (payload: orig, cache)
	logClean  byte = 2 // mapping written back (payload: orig)
	logRemove byte = 3 // mapping removed (payload: orig)
)

const recordSize = 1 + 8 + 8

func (t *Table) appendLog(kind byte, m Mapping) {
	if t.log == nil {
		return
	}
	rec := &t.logRec
	rec[0] = kind
	binary.LittleEndian.PutUint64(rec[1:9], uint64(m.Orig))
	binary.LittleEndian.PutUint64(rec[9:17], uint64(m.Cache))
	// The log is best-effort durability, as in a controller's NVRAM
	// journal; a short write surfaces on Recover, not here.
	_, _ = t.log.Write(rec[:])
}

// Recover replays a dirty log and returns the mappings that were dirty
// when the log ended — the blocks whose cached copies must be restored
// after a crash (paper §4.2: clean blocks are invalidated, dirty ones
// recovered from their logged translations).
func Recover(r io.Reader) ([]Mapping, error) {
	br := bufio.NewReader(r)
	dirty := make(map[int64]int64)
	var rec [recordSize]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			// Torn final record: everything before it is still valid.
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mapcache: reading log: %w", err)
		}
		orig := int64(binary.LittleEndian.Uint64(rec[1:9]))
		cache := int64(binary.LittleEndian.Uint64(rec[9:17]))
		switch rec[0] {
		case logInsert:
			dirty[orig] = cache
		case logClean, logRemove:
			delete(dirty, orig)
		default:
			return nil, errors.New("mapcache: corrupt log record")
		}
	}
	out := make([]Mapping, 0, len(dirty))
	for orig, cache := range dirty {
		out = append(out, Mapping{Orig: orig, Cache: cache, Dirty: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Orig < out[j].Orig })
	return out, nil
}
