// Package mapcache implements CRAID's mapping cache (paper §4.2): the
// in-memory structure translating block addresses in the archive
// partition (P_A) to their cached copies in the cache partition (P_C),
// with a dirty flag per entry.
//
// The paper specifies a tree with O(log k) lookups and quantifies its
// memory as ~0.58% of the cache partition size (4-byte LBAs, a dirty
// bit and an 8-byte pointer per entry, 4 KiB blocks); Bytes() keeps
// that per-entry accounting, which is what the reproduced tables report.
// Failure resilience comes from a persistent log of dirty translations
// (Log/Recover): after a crash, dirty cached copies — the only ones that
// differ from the original data — can be located and recovered, while
// clean entries are simply invalidated.
//
// The host structure here is not a tree but one open-addressing hash
// table (internal/oamap, the table the replacement policies index with)
// from archive address to {cache address, dirty}. The simulator charges
// no time for controller CPU, so no simulated number depends on the
// choice, and the monitor's traffic is point operations: a lookup, a
// dirty-flag flip and an eviction are one probe each where the tree paid
// a descent (and a rebalancing delete per eviction). What a tree gives
// for free — order — only the cold consumers need: Walk and
// DirtyMappings collect and sort. The run calls cost one probe per block
// and have no fallback for huge sparse ranges, because no caller passes
// a run longer than one request.
package mapcache

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"craid/internal/oamap"
)

// Mapping is one translation entry.
type Mapping struct {
	Orig  int64 // LBA in the archive partition
	Cache int64 // LBA of the copy in the cache partition
	Dirty bool  // cached copy differs from the original
}

// entry is what the table stores under a Mapping's Orig.
type entry struct {
	cache int64
	dirty bool
}

func (e entry) mapping(orig int64) Mapping {
	return Mapping{Orig: orig, Cache: e.cache, Dirty: e.dirty}
}

// Table is the mapping cache. Make one with New. A Table is confined to
// one goroutine, like the CRAID controller and sim.Engine that drive it.
// Its cell array grows by doubling and is kept across removals and
// Clear, so steady-state churn — the monitor continuously evicts and
// re-inserts mappings, and a crash-restart or an invalidating expansion
// empties the table and refills it at once — allocates nothing.
type Table struct {
	m   *oamap.Map[entry]
	log io.Writer // optional persistent dirty log

	// logRec is appendLog's encode scratch. A local array would escape
	// to the heap at the io.Writer call — one allocation per logged
	// transition; Write contracts not to retain the slice, so reusing
	// one buffer is safe.
	logRec [LogRecordSize]byte
}

// New returns an empty table.
func New() *Table { return &Table{m: oamap.New[entry](0)} }

// SetLog directs persistent logging of dirty-state transitions to w.
// Passing nil disables logging.
func (t *Table) SetLog(w io.Writer) { t.log = w }

// Len returns the number of mappings.
func (t *Table) Len() int { return t.m.Len() }

// Bytes returns the worst-case memory footprint per the paper's
// accounting: 4 bytes per LBA (two LBAs), 1 dirty bit, and 8 bytes of
// structure pointer per entry.
func (t *Table) Bytes() int64 {
	const perEntryBits = 2*32 + 1 + 64
	return (int64(t.Len())*perEntryBits + 7) / 8
}

// Lookup returns the mapping for orig.
func (t *Table) Lookup(orig int64) (Mapping, bool) {
	e, ok := t.m.Get(orig)
	if !ok {
		return Mapping{}, false
	}
	return e.mapping(orig), true
}

// IsDirty reports whether orig is mapped with its dirty flag set —
// Lookup + Dirty, for the eviction path, which asks it for a window of
// victim candidates per eviction.
func (t *Table) IsDirty(orig int64) bool {
	e, _ := t.m.Get(orig) // the zero entry of an unmapped address is clean
	return e.dirty
}

// Insert adds or replaces the mapping for m.Orig.
func (t *Table) Insert(m Mapping) {
	e := entry{cache: m.Cache, dirty: m.Dirty}
	wasDirty := false
	if at, ok := t.m.Probe(m.Orig); ok {
		old := t.m.At(at)
		wasDirty = old.dirty
		*old = e
	} else {
		t.m.Fill(at, m.Orig, e)
	}
	switch {
	case m.Dirty:
		t.appendLog(logInsert, m)
	case wasDirty:
		// A clean copy replaced a dirty one: the dirty state is gone.
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
	e, ok := t.m.Del(orig)
	if !ok {
		return Mapping{}, false
	}
	t.appendLog(logRemove, Mapping{Orig: orig})
	return e.mapping(orig), true
}

// RemoveRun deletes every mapping in [orig, orig+n), returning how many
// existed — equivalent to a loop of Remove over the range.
func (t *Table) RemoveRun(orig, n int64) int64 {
	var removed int64
	for i := int64(0); i < n; i++ {
		if _, ok := t.Remove(orig + i); ok {
			removed++
		}
	}
	return removed
}

// SetDirty updates the dirty flag for orig, reporting whether the entry
// exists. Transitions are logged so dirty blocks are recoverable.
func (t *Table) SetDirty(orig int64, dirty bool) bool {
	at, ok := t.m.Probe(orig)
	if !ok {
		return false
	}
	if e := t.m.At(at); e.dirty != dirty {
		e.dirty = dirty
		if dirty {
			t.appendLog(logInsert, e.mapping(orig))
		} else {
			t.appendLog(logClean, Mapping{Orig: orig})
		}
	}
	return true
}

// SetDirtyRun updates the dirty flag of every existing mapping in
// [orig, orig+n) — equivalent to a loop of SetDirty. It returns how many
// mappings were found.
func (t *Table) SetDirtyRun(orig, n int64, dirty bool) int64 {
	var found int64
	for i := int64(0); i < n; i++ {
		if t.SetDirty(orig+i, dirty) {
			found++
		}
	}
	return found
}

// LookupRun inspects the run starting at orig.
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
// Either way it probes orig, orig+1, … until the answer changes: n+1
// probes at most, max of them when the run or gap reaches the cap.
func (t *Table) LookupRun(orig, max int64) (m Mapping, n int64, ok bool) {
	if max <= 0 {
		return Mapping{}, 0, false
	}
	first, ok := t.m.Get(orig)
	if !ok {
		for n = 1; n < max; n++ {
			if _, mapped := t.m.Get(orig + n); mapped {
				break
			}
		}
		return Mapping{}, n, false
	}
	for n = 1; n < max; n++ {
		if e, mapped := t.m.Get(orig + n); !mapped || e.cache != first.cache+n {
			break
		}
	}
	return first.mapping(orig), n, true
}

// sorted returns the mappings (dirtyOnly: the dirty ones) in ascending
// Orig order — the order the table itself does not keep.
func (t *Table) sorted(dirtyOnly bool) []Mapping {
	var out []Mapping
	if !dirtyOnly {
		out = make([]Mapping, 0, t.Len())
	}
	for orig, e := range t.m.All() {
		if e.dirty || !dirtyOnly {
			out = append(out, e.mapping(orig))
		}
	}
	sortByOrig(out)
	return out
}

func sortByOrig(ms []Mapping) {
	slices.SortFunc(ms, func(a, b Mapping) int { return cmp.Compare(a.Orig, b.Orig) })
}

// Walk visits all mappings in ascending Orig order, as of the call: fn
// may change the table. Returning false from fn stops the walk.
func (t *Table) Walk(fn func(Mapping) bool) {
	for _, m := range t.sorted(false) {
		if !fn(m) {
			return
		}
	}
}

// DirtyMappings returns all dirty entries in ascending Orig order.
func (t *Table) DirtyMappings() []Mapping { return t.sorted(true) }

// Clear removes all mappings.
func (t *Table) Clear() { t.m.Clear() }

// --- persistent dirty log ---

// Log record kinds.
const (
	logInsert byte = 1 // mapping became dirty (payload: orig, cache)
	logClean  byte = 2 // mapping written back (payload: orig)
	logRemove byte = 3 // mapping removed (payload: orig)
)

// LogRecordSize is the size of one log record: kind, orig, cache.
const LogRecordSize = 1 + 8 + 8

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
	var rec [LogRecordSize]byte
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
	sortByOrig(out)
	return out, nil
}
