package core

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"craid/internal/cache"
	"craid/internal/mapcache"
)

// Performance notes — extent-run invariants of the monitor hot path.
//
// The monitor operates at extent (run) granularity, not block
// granularity. The load-bearing invariants, relied on throughout
// access/readExtent/writeExtent/insertRuns:
//
//  1. mapcache.Table.LookupRun answers either "the run of mappings
//     starting here that is contiguous in BOTH Orig and Cache" (a hit
//     extent — servable with one P_C I/O) or "the gap to the next
//     mapping" (a miss extent), at one hash probe per block of the
//     answer. Everything downstream of it is per extent, not per block:
//     one dirty-flag call, one decision — the original implementation
//     paid an I/O decision for every block of every request.
//
//  2. The replacement policy is the per-block exception, and that keeps
//     the ratios per-block by construction: AccessRun is a loop of
//     Access in every policy, and insertRuns calls Insert once per
//     block and handles each victim where Insert returns it, in
//     per-block order.
//
//  3. The monitor is map-free and allocation-free at steady state:
//     every replacement policy lives on a dense slot arena with one
//     open-addressing key index (internal/cache — no map[Key]*entry, no
//     per-key Go-map hashing, no per-entry heap objects), the mapping
//     cache is the same table (internal/oamap) and keeps its cell array
//     across removals, and the insertRuns newborn scratch and the
//     decision slice live on the monitor and are reused. The redirector
//     turns the decisions into pooled I/O (craid.go), so a warm-cache
//     Submit performs zero allocations (TestSubmitWarmAllocFree pins
//     this); monitor churn (evict + re-insert) allocates nothing either.
//
//  4. Dirty victims evicted together are written back together:
//     queueWriteback extends the batch's last write-back decision with a
//     victim contiguous in both archive address and cache slot, and the
//     redirector issues each as one read-then-update chain (the paper's
//     "4 additional I/Os" amortized across the run). An insert's
//     write-backs are emitted before its placement writes, preserving
//     order on shared disk queues.
//
//  6. A dirty-log append is a copy into a buffer, not an I/O: the
//     mapping log's records accumulate in memory (mapLog) and are
//     written out at apply-step boundaries (the end of each Submit,
//     background copy-in or expansion) — same byte stream, same
//     recovery, no Write per translation.

// monitor is CRAID's I/O monitor (paper Fig. 2): it classifies each
// request against the mapping cache, runs the replacement policy, places
// new copies in P_C's slots and picks the dirty victims that go back to
// P_A. It issues nothing. Every call returns its decisions, in the order
// they must be issued, in a slice the monitor reuses: the caller consumes
// it before the next call. P_C is only a capacity in blocks here, so the
// monitor runs, and is tested, without an engine or devices.
type monitor struct {
	table  *mapcache.Table
	policy cache.Policy
	name   string // the policy's, for rebuilding it at a new capacity

	free   freeRuns
	next   int64 // bump allocator over P_C data blocks
	pcData int64 // P_C's data capacity in blocks

	pending []bool // insertRuns newborn scratch, reused across calls
	wbFrom  int    // the current batch's write-backs are out[wbFrom:]

	// out holds the current call's decisions, in buf unless a call needs
	// more: buf is sized above the largest call of the benchmark's
	// workloads (108 decisions), so a simulation allocates none.
	out   []decision
	buf   [128]decision
	stats Stats
}

// decision is one I/O the monitor asks the redirector for, over the run
// of n archive blocks from orig cached at slots from slot (paRead: none).
type decision struct {
	kind          decisionKind
	client        bool // pcWrite: part of the client's redirected write stream
	orig, slot, n int64
}

type decisionKind uint8

const (
	pcRead    decisionKind = iota // read a hit run from P_C
	pcWrite                       // write a run to P_C
	paRead                        // read a miss from P_A; its completion calls copyIn
	writeBack                     // copy a dirty run from P_C back to P_A
)

// setup readies m, empty, over a P_C of pcData blocks. The policy name
// is checked here, once: every later regrow reuses it. m must not be
// copied afterwards.
func (m *monitor) setup(policy string, pcData int64) error {
	m.table, m.name, m.out = mapcache.New(), policy, m.buf[:0]
	if m.regrow(pcData); m.policy == nil {
		return fmt.Errorf("core: unknown policy %q", policy)
	}
	return nil
}

// regrow sizes a fresh policy and an unused allocator to pcData blocks.
func (m *monitor) regrow(pcData int64) {
	m.pcData = pcData
	// Honours the cache.Config.Dirty contract: the monitor only ever sets
	// dirty flags (SetDirtyRun(…, true)); a dirty copy turns clean by
	// being evicted, and Expand and CrashRestart come back through here
	// for a new policy. An unknown name leaves policy nil for setup.
	m.policy, _ = cache.New(m.name, int(pcData), cache.Config{
		Dirty: func(k cache.Key) bool {
			return m.table.IsDirty(k)
		},
	})
	m.free = freeRuns{}
	m.next = 0
}

// access classifies a read or write of count blocks from b at extent
// granularity — one LookupRun per hit run or miss gap (see the
// performance notes above) — deciding each extent before looking up the
// next, so an extent's side effects (an insertion's evictions can land
// anywhere, including later in this request) are observed.
func (m *monitor) access(read bool, b, count int64) []decision {
	m.out = m.out[:0]
	if read {
		m.stats.ReadBlocks += count
	} else {
		m.stats.WriteBlocks += count
	}
	for end := b + count; b < end; {
		mp, n, hit := m.table.LookupRun(b, end-b)
		if read {
			m.readExtent(b, n, mp.Cache, hit, count)
		} else {
			m.writeExtent(b, n, mp.Cache, hit, count)
		}
		b += n
	}
	return m.out
}

// readExtent decides one classified read extent of n blocks from b: a
// hit run redirects to its copies at slot in P_C; a miss gap is served
// from P_A and copied into P_C in the background (B.1/B.2 in Fig. 2).
func (m *monitor) readExtent(b, n, slot int64, hit bool, reqSize int64) {
	if hit {
		m.policy.AccessRun(b, n, reqSize)
		m.stats.ReadHits += n
		m.out = append(m.out, decision{kind: pcRead, orig: b, slot: slot, n: n})
		return
	}
	m.out = append(m.out, decision{kind: paRead, orig: b, n: n})
}

// writeExtent decides one classified write extent — writes always go to
// P_C: a hit run is overwritten in place and marked dirty; a miss gap
// allocates fresh cache slots via insertRuns. Parity in P_C is the
// redirector's business.
func (m *monitor) writeExtent(b, n, slot int64, hit bool, reqSize int64) {
	if hit {
		m.policy.AccessRun(b, n, reqSize)
		m.table.SetDirtyRun(b, n, true)
		m.stats.WriteHits += n
		m.out = append(m.out, decision{kind: pcWrite, client: true, orig: b, slot: slot, n: n})
		return
	}
	m.insertRuns(b, n, true, false, reqSize)
}

// copyIn inserts [b, b+n) into P_C as clean copies (background; the
// client was already served from P_A).
func (m *monitor) copyIn(b, n int64) []decision {
	m.out = m.out[:0]
	m.stats.CopyIns += n
	m.insertRuns(b, n, false, true, n)
	return m.out
}

// insertRuns allocates cache slots for the logical run [b, b+n),
// updates the mapping cache and policy (evicting as needed), and emits
// the P_C writes. Each uncached sub-run is evicted-for first and then
// allocated as a whole, so related blocks land in contiguous slots — the
// "long sequential chains" of §4.1. All work is done at extent
// granularity, except the policy: one LookupRun per sub-run, one policy
// Insert per block, one mapcache InsertRun per allocated fragment.
func (m *monitor) insertRuns(b, n int64, dirty, byRead bool, reqSize int64) {
	for i := int64(0); i < n; {
		blk := b + i
		mp, run, ok := m.table.LookupRun(blk, n-i)
		if ok {
			// Already cached: a concurrent request inserted the blocks
			// between our miss and this (possibly deferred) insert.
			m.policy.AccessRun(blk, run, reqSize)
			if dirty {
				m.table.SetDirtyRun(blk, run, true)
				m.out = append(m.out, decision{kind: pcWrite, orig: blk, slot: mp.Cache, n: run})
			}
			i += run
			continue
		}
		// run is the maximal uncached sub-run starting here.
		//
		// Make room first: these insertions may evict, freeing slots
		// the allocation below can then claim as contiguous runs. A
		// victim may be a block of this very batch (possible under
		// priority policies like GDSF, where a large new entry can rank
		// last immediately): such newborns are simply dropped — they
		// have no mapping and no cached data yet. pending[k] tracks
		// whether newborn blk+k still stands; the buffer is reused
		// across calls (the monitor is single-threaded and insertRuns
		// never re-enters itself).
		if int64(cap(m.pending)) < run {
			m.pending = make([]bool, run)
		}
		pending := m.pending[:run]
		for k := range pending {
			pending[k] = true
		}
		m.wbFrom = len(m.out)
		for k := int64(0); k < run; k++ {
			victim, evicted := m.policy.Insert(blk+k, reqSize)
			if !evicted {
				continue
			}
			// A sibling newborn is still a replacement for the ratio
			// accounting, but has nothing to clean up.
			if off := victim - blk; off >= 0 && off < run && pending[off] {
				pending[off] = false
				m.countEviction(byRead)
				continue
			}
			m.evict(victim, byRead)
		}
		// Allocate fragments and bind mappings for surviving blocks,
		// keeping sub-runs of consecutive survivors together.
		for k := int64(0); k < run; {
			if !pending[k] {
				k++
				continue
			}
			s := int64(1)
			for k+s < run && pending[k+s] {
				s++
			}
			for off := int64(0); off < s; {
				start, got := m.allocRun(s - off)
				m.table.InsertRun(blk+k+off, start, got, dirty)
				// A dirty placement is the client-visible write stream at
				// its redirected address.
				m.out = append(m.out, decision{kind: pcWrite, client: dirty, orig: blk + k + off, slot: start, n: got})
				off += got
			}
			k += s
		}
		i += run
	}
}

func (m *monitor) countEviction(byRead bool) {
	m.stats.Evictions++
	if byRead {
		m.stats.ReadEvictions++
	} else {
		m.stats.WriteEvictions++
	}
}

// evict removes a victim chosen by the policy: dirty copies are written
// back to P_A, clean copies are dropped for free. queueWriteback
// coalesces victims evicted together — replacement sweeps walk blocks
// that were inserted together, so their runs are long. Remove hands back the
// mapping it deletes, so an eviction is one probe of the table.
func (m *monitor) evict(victim cache.Key, byRead bool) {
	mp, ok := m.table.Remove(victim)
	if !ok {
		// The policy and table are updated in lockstep; a policy entry
		// without a mapping is a programming error.
		panic(fmt.Sprintf("core: policy evicted unmapped block %d", victim))
	}
	m.countEviction(byRead)
	if mp.Dirty {
		m.stats.DirtyEvictions++
		m.stats.Writebacks++
		m.queueWriteback(victim, mp.Cache)
	}
	// The slot is reusable immediately: the simulator models timing,
	// not data, and the write-back is emitted before any reuse, so its
	// read is ordered ahead on the same disk queue.
	m.freeSlot(mp.Cache)
}

// queueWriteback emits one dirty victim's write-back — read the copy
// from P_C, then update P_A (the 2-read/2-write parity update per
// extent, the paper's "4 additional I/Os") — extending the batch's
// previous one when both its archive address and cache slot are
// contiguous. A batch (out[wbFrom:]) holds only write-backs.
func (m *monitor) queueWriteback(orig, slot int64) {
	if last := len(m.out) - 1; last >= m.wbFrom &&
		m.out[last].orig+m.out[last].n == orig &&
		m.out[last].slot+m.out[last].n == slot {
		m.out[last].n++
		return
	}
	m.out = append(m.out, decision{kind: writeBack, orig: orig, slot: slot, n: 1})
}

// invalidate drops every mapping, an invalidating Expand's first half
// (paper §4.1): the dirty ones are written back. It counts into st and
// returns the write-back decisions; regrow then sizes the monitor to the
// new geometry. Each dropped dirty translation is logged as removed, as
// an eviction's is: a crash must not recover a copy the upgrade wrote
// back, onto a slot another block holds by then.
func (m *monitor) invalidate(st *ExpandStats) []decision {
	m.out, m.wbFrom = m.out[:0], 0
	st.Invalidated = int64(m.table.Len())
	for _, mp := range m.table.DirtyMappings() {
		st.DirtyWriteback++
		m.stats.Writebacks++
		m.queueWriteback(mp.Orig, mp.Cache)
		m.table.Remove(mp.Orig)
	}
	m.table.Clear()
	return m.out
}

// retain regrows the monitor over a P_C of pcData blocks keeping every
// live mapping (a retaining Expand), and returns the live slots in
// ascending order: the blocks the redirector moves onto the new geometry.
func (m *monitor) retain(pcData int64) []int64 {
	oldNext, oldFree := m.next, m.free
	m.regrow(pcData)
	// Keep the allocator state: old slot numbers remain reserved (the
	// new P_C is strictly larger for a growth expansion).
	if m.pcData < oldNext {
		panic("core: retaining Expand shrank the cache partition")
	}
	m.next, m.free = oldNext, oldFree
	// Rebuild the policy at the new capacity, preserving residency
	// (recency order within the retained set is not preserved — the
	// policy relearns it, which costs nothing extra).
	slots := make([]int64, 0, m.table.Len())
	m.table.Walk(func(mp mapcache.Mapping) bool {
		m.policy.Insert(mp.Orig, 1)
		slots = append(slots, mp.Cache)
		return true
	})
	slices.Sort(slots)
	return slots
}

// recover tears the monitor down as a crash loses it — mappings,
// policy, allocator — onto a P_C of pcData
// blocks, and reinstates the dirty translations the log image r carries
// (none if r is nil) for a volume of blocks archive blocks: dirty cached
// copies are the only ones differing from the archive, clean entries
// start cold, exactly as §4.2 prescribes. The log is input from outside
// the program (a -maplog file, a crash image), so every record is
// checked before any state changes: a bad image is an error, never a
// panic three requests later.
func (m *monitor) recover(pcData int64, r io.Reader, blocks int64) (int, error) {
	m.table.Clear()
	m.regrow(pcData)
	if r == nil {
		return 0, nil
	}
	ms, err := mapcache.Recover(r)
	if err != nil {
		return 0, err
	}
	used := make(map[int64]bool, len(ms))
	var maxSlot int64 = -1
	for _, mp := range ms {
		switch {
		case mp.Cache < 0 || mp.Cache >= m.pcData:
			// Beyond capacity, the log predates a geometry change; such
			// copies are unrecoverable from P_C and must be treated as lost.
			return 0, fmt.Errorf("core: logged slot %d outside cache capacity %d", mp.Cache, m.pcData)
		case mp.Orig < 0 || mp.Orig >= blocks:
			return 0, fmt.Errorf("core: logged block %d outside volume capacity %d", mp.Orig, blocks)
		case used[mp.Cache]:
			return 0, fmt.Errorf("core: log maps two blocks to slot %d", mp.Cache)
		}
		used[mp.Cache] = true
		if mp.Cache > maxSlot {
			maxSlot = mp.Cache
		}
	}
	for _, mp := range ms {
		m.table.Insert(mp)
		m.policy.Insert(mp.Orig, 1)
	}
	// Reserve the recovered slots: bump the allocator past the highest
	// and return the gaps to the free list.
	m.next = maxSlot + 1
	for s := int64(0); s < m.next; s++ {
		if !used[s] {
			m.freeSlot(s)
		}
	}
	return len(ms), nil
}

// allocRun reserves up to n consecutive P_C data blocks and returns the
// run. Contiguity policy (realizing §4.1's "long sequential chains"):
// a free run that fits the request wins (first-fit over coalesced
// runs), then the bump region, then the largest free fragment. The
// caller loops until its need is covered.
func (m *monitor) allocRun(n int64) (start, got int64) {
	if s, g, ok := m.free.takeFit(n); ok {
		return s, g
	}
	if m.next < m.pcData {
		got = n
		if got > m.pcData-m.next {
			got = m.pcData - m.next
		}
		start = m.next
		m.next += got
		return start, got
	}
	if s, g, ok := m.free.takeLargest(n); ok {
		return s, g
	}
	panic("core: cache partition allocator exhausted (policy capacity mismatch)")
}

func (m *monitor) freeSlot(s int64) { m.free.add(s, 1) }

// freeRuns tracks free cache slots as sorted, coalesced runs so that
// blocks evicted together free a contiguous region that the next
// copy-in can claim as one sequential chain.
type freeRuns struct {
	runs []blockRange // sorted by start, non-adjacent
}

type blockRange struct{ start, end int64 } // [start, end)

// add returns [start, start+n) to the free pool, merging neighbours.
func (f *freeRuns) add(start, n int64) {
	end := start + n
	i := sort.Search(len(f.runs), func(i int) bool { return f.runs[i].start >= start })
	// Merge with predecessor?
	if i > 0 && f.runs[i-1].end == start {
		i--
		start = f.runs[i].start
		f.runs = append(f.runs[:i], f.runs[i+1:]...)
	}
	// Merge with successor?
	if i < len(f.runs) && f.runs[i].start == end {
		end = f.runs[i].end
		f.runs = append(f.runs[:i], f.runs[i+1:]...)
	}
	f.runs = append(f.runs, blockRange{})
	copy(f.runs[i+1:], f.runs[i:])
	f.runs[i] = blockRange{start, end}
}

// takeFit removes and returns a run of exactly n slots from the first
// free run large enough (first-fit), or reports ok=false.
func (f *freeRuns) takeFit(n int64) (start, got int64, ok bool) {
	for i := range f.runs {
		r := &f.runs[i]
		if r.end-r.start >= n {
			start = r.start
			r.start += n
			if r.start == r.end {
				f.runs = append(f.runs[:i], f.runs[i+1:]...)
			}
			return start, n, true
		}
	}
	return 0, 0, false
}

// takeLargest removes and returns the largest free fragment (capped at
// n), or reports ok=false when the pool is empty.
func (f *freeRuns) takeLargest(n int64) (start, got int64, ok bool) {
	if len(f.runs) == 0 {
		return 0, 0, false
	}
	best := 0
	for i, r := range f.runs {
		if r.end-r.start > f.runs[best].end-f.runs[best].start {
			best = i
		}
	}
	r := &f.runs[best]
	got = r.end - r.start
	if got > n {
		got = n
	}
	start = r.start
	r.start += got
	if r.start == r.end {
		f.runs = append(f.runs[:best], f.runs[best+1:]...)
	}
	return start, got, true
}

// size reports total free slots (used by tests).
func (f *freeRuns) size() int64 {
	var n int64
	for _, r := range f.runs {
		n += r.end - r.start
	}
	return n
}
