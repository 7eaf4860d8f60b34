package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// Performance notes — extent-run invariants of the monitor hot path.
//
// The monitor operates at extent (run) granularity, not block
// granularity. The load-bearing invariants, relied on throughout
// classify/readExtent/writeExtent/insertRuns:
//
//  1. mapcache.Table.LookupRun answers either "the run of mappings
//     starting here that is contiguous in BOTH Orig and Cache" (a hit
//     extent — servable with one P_C I/O) or "the gap to the next
//     mapping" (a miss extent), at one hash probe per block of the
//     answer. Everything downstream of it is per extent, not per block:
//     one policy call, one dirty-flag call, one redirected I/O — the
//     original implementation paid a policy-map operation and an I/O
//     decision for every block of every request.
//
//  2. Batched policy traffic must be bit-identical to per-block
//     traffic: cache.Policy.AccessRun/InsertRun are specified (and
//     property-tested) to behave exactly like loops of Access/Insert,
//     so hit, replacement and eviction ratios do not depend on the
//     batching. Eviction victims surface through InsertRun's callback
//     in per-block order.
//
//  3. The Submit path is map-free and allocation-free at steady state:
//     every replacement policy lives on a dense slot arena with one
//     open-addressing key index (internal/cache — no map[Key]*entry, no
//     per-key Go-map hashing, no per-entry heap objects), the mapping
//     cache is the same table (internal/oamap) and keeps its cell array
//     across removals, the insertRuns newborn scratch, eviction
//     callback and write-back run buffer live on the CRAID struct,
//     every "when these I/Os complete, do X" is a join from the Array's
//     one pool whose step names X (array.go: one object per request,
//     per miss extent, per write-back run, per parity write extent),
//     and the span extent walks reuse bound callbacks instead of
//     per-call closures. A warm-cache Submit performs zero allocations
//     (TestSubmitWarmAllocFree pins this); monitor churn (evict +
//     re-insert) allocates nothing either.
//
//  4. Dirty victims evicted together are written back together:
//     queueWriteback coalesces victims contiguous in both archive
//     address and cache slot, and flushWritebacks issues one
//     read-then-update chain per run (the paper's "4 additional I/Os"
//     amortized across the run). Write-back reads are flushed before
//     the batch's allocation writes, preserving order on shared disk
//     queues.
//
//  5. One CRAID, like the sim.Engine driving it, is confined to one
//     goroutine: the monitor classifies each request inline, in
//     submission order, as the paper's controller does. What runs beside
//     it is the replay reader goroutine (replay.go) and other whole
//     simulations — cross-experiment parallelism lives in
//     internal/experiments.Runner, one simulation per worker.
//
//  6. A dirty-log append is a copy into a buffer, not an I/O: the
//     mapping log's records accumulate in memory (mapLog) and are
//     written out at apply-step boundaries (the end of each Submit,
//     background copy-in or expansion) — same byte stream, same
//     recovery, no Write per translation.

// PCLevel selects the redundancy of the cache partition.
type PCLevel uint8

// Cache-partition redundancy levels. The paper evaluates RAID-5 (its
// default, used here too) and RAID-0 variants; RAID-6 realizes the §6
// extension with its doubled parity-update cost.
const (
	PCRaid5 PCLevel = iota
	PCRaid0
	PCRaid6
)

// String returns "RAID-0", "RAID-5" or "RAID-6".
func (l PCLevel) String() string {
	switch l {
	case PCRaid0:
		return "RAID-0"
	case PCRaid6:
		return "RAID-6"
	default:
		return "RAID-5"
	}
}

// Config parameterizes a CRAID instance.
type Config struct {
	// Policy is the I/O monitor's replacement policy name (see
	// internal/cache). Default "WLRU" with window 0.5 — the paper's
	// choice after §5.1.
	Policy string
	// CachePerDisk is the cache-partition size per cache disk, in
	// blocks.
	CachePerDisk int64
	// ParityGroup is the parity-group size for the cache partition's
	// RAID-5 (default 10, as in the paper's testbed).
	ParityGroup int
	// StripeUnit is the stripe unit in blocks (default 32 = 128 KiB).
	StripeUnit int64
	// Level is the cache partition's redundancy (default RAID-5).
	Level PCLevel
	// MapLogSync fsyncs the mapping log after every flushed buffer,
	// closing the paper's §4.2 NVRAM assumption down to real durable
	// storage: a flush is then not merely handed to the OS but on
	// stable media before the next buffer is written. Only effective
	// when SetMappingLog is given a writer with a Sync() error method;
	// the recovery byte-stream contract is unchanged either way.
	MapLogSync bool
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "WLRU"
	}
	if c.ParityGroup == 0 {
		c.ParityGroup = 10
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 32
	}
	if c.CachePerDisk < c.StripeUnit {
		c.CachePerDisk = c.StripeUnit // at least one stripe row
	}
	return c
}

// Stats are CRAID's monitor-level counters. Block granularity: a
// request for n blocks contributes n to the access counters.
type Stats struct {
	ReadBlocks  int64 // blocks accessed by reads
	WriteBlocks int64
	ReadHits    int64 // blocks found in P_C
	WriteHits   int64

	Evictions      int64 // total policy evictions
	DirtyEvictions int64 // evictions requiring write-back to P_A
	ReadEvictions  int64 // evictions triggered while serving reads
	WriteEvictions int64

	CopyIns    int64 // blocks copied P_A → P_C on read misses
	Writebacks int64 // dirty blocks written P_C → P_A
	Expansions int64
}

// HitRatio returns the block hit ratio for op.
func (s *Stats) HitRatio(op disk.Op) float64 {
	if op == disk.OpRead {
		return ratio(s.ReadHits, s.ReadBlocks)
	}
	return ratio(s.WriteHits, s.WriteBlocks)
}

// EvictionRatio returns evictions per accessed block for op.
func (s *Stats) EvictionRatio(op disk.Op) float64 {
	if op == disk.OpRead {
		return ratio(s.ReadEvictions, s.ReadBlocks)
	}
	return ratio(s.WriteEvictions, s.WriteBlocks)
}

// ReplacementRatio returns evictions per accessed block over both ops
// (the paper's Table 3 metric).
func (s *Stats) ReplacementRatio() float64 {
	return ratio(s.Evictions, s.ReadBlocks+s.WriteBlocks)
}

// OverallHitRatio returns the hit ratio over both ops (Table 2).
func (s *Stats) OverallHitRatio() float64 {
	return ratio(s.ReadHits+s.WriteHits, s.ReadBlocks+s.WriteBlocks)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ExpandStats reports what one online expansion did.
type ExpandStats struct {
	DirtyWriteback int64 // blocks written back to P_A
	Invalidated    int64 // total mappings dropped (incl. dirty)
	Migrated       int64 // cached blocks physically moved (retaining Expand)
}

// CRAID is the self-optimizing array: I/O monitor + mapping cache +
// I/O redirector over a cache partition P_C and an archive partition
// P_A (paper §3, Fig. 2).
type CRAID struct {
	latencies
	arr *Array
	cfg Config

	sharedPC   bool  // P_C spread over all devices (vs dedicated SSDs)
	cacheDisks []int // devices hosting P_C
	cacheBase  int64
	pc         *span
	pcData     int64

	pa *span // archive partition

	table  *mapcache.Table
	policy cache.Policy

	free freeRuns
	next int64 // bump allocator over P_C data blocks

	pending []bool  // insertRuns newborn scratch, reused across calls
	wb      []wbRun // pending dirty write-back runs, reused across calls

	// insertRuns' eviction-callback state: the callback handed to
	// cache.Policy.InsertRun is bound once (insEvict) and reads the
	// current batch from these fields, so the insert/evict path passes
	// no fresh closure across the policy interface. insertRuns never
	// re-enters itself, so one set of fields suffices.
	insBlk   int64
	insRun   int64
	insByOp  disk.Op
	insEvict func(cache.Key)

	// log, when SetMappingLog attached one, buffers the table's dirty-
	// log records; flushLog drains it once per apply step.
	log *mapLog

	stats Stats
}

// wbRun is a contiguous run of dirty victims awaiting write-back:
// blocks orig..orig+n-1 cached at slots slot..slot+n-1.
type wbRun struct{ orig, slot, n int64 }

// chain issues one background chain: read [from, from+n) on src and,
// when that completes, take st (stepCopyIn, stepWriteBack or
// stepMigrate) over the run [orig, orig+n), telling fn as the step says.
// The chain is stamped with the current incarnation (Array.epoch), so a
// crash-restart in between leaves only its timing.
func (c *CRAID) chain(st step, fn func(sim.Time), src *span, from, orig, n int64) {
	j := c.arr.newJoin(fn)
	j.step, j.c, j.orig, j.n, j.epoch = st, c, orig, n, c.arr.epoch
	src.read(j, from, n)
	j.seal(c.arr.Eng.Now())
}

// NewCRAID assembles a CRAID volume.
//
//   - cacheDisks/cacheBase place the cache partition (paper: the outer,
//     fastest region of every disk — base 0 — or dedicated SSDs);
//   - archiveLayout/archiveDisks/archiveBase place the archive.
//   - sharedPC declares that P_C spreads over all array devices, so an
//     Expand regrows it across new devices (the CRAID-5/CRAID-5+
//     variants); dedicated-cache variants keep P_C fixed.
func NewCRAID(arr *Array, cfg Config, sharedPC bool, cacheDisks []int, cacheBase int64,
	archiveLayout raid.Layout, archiveDisks []int, archiveBase int64) (*CRAID, error) {
	cfg = cfg.withDefaults()
	c := &CRAID{
		latencies:  newLatencies(),
		arr:        arr,
		cfg:        cfg,
		sharedPC:   sharedPC,
		cacheDisks: cacheDisks,
		cacheBase:  cacheBase,
		pa:         newSpan(arr, archiveLayout, archiveDisks, archiveBase),
	}
	c.insEvict = c.insertEvicted
	c.table = mapcache.New()
	if err := c.buildPC(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildPC (re)creates the cache partition layout, allocator and policy
// over the current cacheDisks. A bad configuration (an unknown policy
// name) surfaces as an error from NewCRAID; later rebuilds (Expand,
// crash-restart) reuse a configuration that already built once, so
// there a failure is a programmer-error invariant and panics.
func (c *CRAID) buildPC() error {
	group := c.cfg.ParityGroup
	var layout raid.Layout
	switch c.cfg.Level {
	case PCRaid0:
		layout = raid.NewRAID0(len(c.cacheDisks), c.cfg.CachePerDisk, c.cfg.StripeUnit)
	case PCRaid6:
		layout = raid.NewRAID6(len(c.cacheDisks), group, c.cfg.CachePerDisk, c.cfg.StripeUnit)
	default:
		layout = raid.NewRAID5(len(c.cacheDisks), group, c.cfg.CachePerDisk, c.cfg.StripeUnit)
	}
	c.pc = newSpan(c.arr, layout, c.cacheDisks, c.cacheBase)
	c.pcData = layout.DataBlocks()
	policy, err := cache.New(c.cfg.Policy, int(c.pcData), cache.Config{
		// Honours the cache.Config.Dirty contract: the monitor only ever
		// sets dirty flags (SetDirtyRun(…, true)); a dirty copy turns
		// clean by being evicted, and Expand and CrashRestart come back
		// through here for a new policy.
		Dirty: func(k cache.Key) bool {
			return c.table.IsDirty(k)
		},
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.policy = policy
	c.free = freeRuns{}
	c.next = 0
	return nil
}

// Stats returns the monitor counters.
func (c *CRAID) Stats() *Stats { return &c.stats }

// MappingBytes reports the mapping cache's memory footprint (paper
// §4.2 accounting).
func (c *CRAID) MappingBytes() int64 { return c.table.Bytes() }

// CacheDataBlocks returns P_C's data capacity in blocks.
func (c *CRAID) CacheDataBlocks() int64 { return c.pcData }

// DataBlocks implements Volume: the archive capacity (P_C holds copies,
// not extra capacity).
func (c *CRAID) DataBlocks() int64 { return c.pa.layout.DataBlocks() }

// Submit implements Volume, realizing the paper's Fig. 2 control flow:
// the request's blocks are classified against the mapping cache into
// hit and miss extents, each served as it is found, and the client
// completes when every extent's I/O has.
func (c *CRAID) Submit(rec trace.Record, done func(sim.Time)) error {
	now := c.arr.Eng.Now()
	lost0 := c.arr.lost()
	j := c.request(c.arr, rec.Op, now, done)
	if rec.Op == disk.OpRead {
		c.stats.ReadBlocks += rec.Count
	} else {
		c.stats.WriteBlocks += rec.Count
	}
	c.classify(rec, j)
	j.seal(now)
	if err := c.flushLog(); err != nil {
		return err
	}
	return c.arr.lostError(rec, lost0)
}

// classify walks rec's blocks at extent granularity — one LookupRun per
// hit run or miss gap (see the performance notes above) — serving each
// extent before looking up the next, so an extent's side effects (an
// insertion's evictions can land anywhere, including later in this
// record) are observed.
func (c *CRAID) classify(rec trace.Record, j *join) {
	end := rec.End()
	for b := rec.Block; b < end; {
		m, n, hit := c.table.LookupRun(b, end-b)
		if rec.Op == disk.OpRead {
			c.readExtent(j, b, n, m.Cache, hit, rec.Count)
		} else {
			c.writeExtent(j, b, n, m.Cache, hit, rec.Count)
		}
		b += n
	}
}

// readExtent serves one classified read extent of n blocks from b: a
// hit run redirects to its copies at cache in P_C; a miss gap is served
// from P_A and copied into P_C in the background (B.1/B.2 in Fig. 2).
func (c *CRAID) readExtent(j *join, b, n, cache int64, hit bool, reqSize int64) {
	if hit {
		c.policy.AccessRun(b, n, reqSize)
		c.stats.ReadHits += n
		c.trackSeq(c.arr.Eng.Now(), 0, cache, n)
		c.pc.read(j, cache, n)
		return
	}
	// Serve the client from P_A; once the data is in memory, copy it
	// into P_C in the background (stepCopyIn — no closure per miss
	// extent).
	c.trackSeq(c.arr.Eng.Now(), 1, b, n)
	c.chain(stepCopyIn, j.branch(), c.pa, b, b, n)
}

// writeExtent serves one classified write extent — writes always go to
// P_C: a hit run is overwritten in place and marked dirty; a miss gap
// allocates fresh cache slots via insertRuns. Parity in P_C is
// maintained with read-modify-write.
func (c *CRAID) writeExtent(j *join, b, n, cache int64, hit bool, reqSize int64) {
	if hit {
		c.policy.AccessRun(b, n, reqSize)
		c.table.SetDirtyRun(b, n, true)
		c.stats.WriteHits += n
		c.trackSeq(c.arr.Eng.Now(), 0, cache, n)
		c.pc.write(j, cache, n)
		return
	}
	c.insertRuns(j, b, n, true, disk.OpWrite, reqSize)
}

// copyIn inserts [b, b+n) into P_C as clean copies (background; the
// client was already served from P_A).
func (c *CRAID) copyIn(b, n int64, byOp disk.Op) {
	c.stats.CopyIns += n
	detached := c.arr.newJoin(nil)
	c.insertRuns(detached, b, n, false, byOp, n)
	detached.seal(c.arr.Eng.Now())
	c.flushLog() // background inserts are an apply step of their own
}

// insertRuns allocates cache slots for the logical run [b, b+n),
// updates the mapping cache and policy (evicting as needed), and issues
// the P_C writes attached to j. Each uncached sub-run is evicted-for
// first and then allocated as a whole, so related blocks land in
// contiguous slots — the "long sequential chains" of §4.1. All work is
// done at extent granularity: one LookupRun per sub-run, one policy
// InsertRun per batch, one mapcache InsertRun per allocated fragment.
func (c *CRAID) insertRuns(j *join, b, n int64, dirty bool, byOp disk.Op, reqSize int64) {
	for i := int64(0); i < n; {
		blk := b + i
		m, run, ok := c.table.LookupRun(blk, n-i)
		if ok {
			// Already cached: a concurrent request inserted the blocks
			// between our miss and this (possibly deferred) insert.
			c.policy.AccessRun(blk, run, reqSize)
			if dirty {
				c.table.SetDirtyRun(blk, run, true)
				c.pc.write(j, m.Cache, run)
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
		if int64(cap(c.pending)) < run {
			c.pending = make([]bool, run)
		}
		pending := c.pending[:run]
		for k := range pending {
			pending[k] = true
		}
		c.insBlk, c.insRun, c.insByOp = blk, run, byOp
		c.policy.InsertRun(blk, run, reqSize, c.insEvict)
		c.flushWritebacks(nil)
		// Allocate fragments and bind mappings for surviving blocks,
		// keeping sub-runs of consecutive survivors together.
		for k := int64(0); k < run; {
			if !pending[k] {
				k++
				continue
			}
			m := int64(1)
			for k+m < run && pending[k+m] {
				m++
			}
			for off := int64(0); off < m; {
				start, got := c.allocRun(m - off)
				c.table.InsertRun(blk+k+off, start, got, dirty)
				if dirty {
					// Client-visible write stream at its redirected
					// address.
					c.trackSeq(c.arr.Eng.Now(), 0, start, got)
				}
				c.pc.write(j, start, got)
				off += got
			}
			k += m
		}
		i += run
	}
}

// insertEvicted is the eviction callback insertRuns hands the policy,
// bound once at construction and parameterized through the ins* fields.
// A victim inside the current batch is a sibling newborn displaced
// before it got a mapping or cached data: still a replacement for the
// ratio accounting, but nothing to clean up.
func (c *CRAID) insertEvicted(victim cache.Key) {
	if off := victim - c.insBlk; off >= 0 && off < c.insRun && c.pending[off] {
		c.pending[off] = false
		c.stats.Evictions++
		if c.insByOp == disk.OpRead {
			c.stats.ReadEvictions++
		} else {
			c.stats.WriteEvictions++
		}
		return
	}
	c.evict(victim, c.insByOp)
}

// evict removes a victim chosen by the policy: dirty copies are queued
// for write-back to P_A, clean copies are dropped for free. The actual
// write-back I/O is issued by flushWritebacks, which coalesces victims
// evicted together — replacement sweeps walk blocks that were inserted
// together, so their runs are long. Remove hands back the mapping it
// deletes, so an eviction is one probe of the table.
func (c *CRAID) evict(victim cache.Key, byOp disk.Op) {
	m, ok := c.table.Remove(victim)
	if !ok {
		// The policy and table are updated in lockstep; a policy entry
		// without a mapping is a programming error.
		panic(fmt.Sprintf("core: policy evicted unmapped block %d", victim))
	}
	c.stats.Evictions++
	if byOp == disk.OpRead {
		c.stats.ReadEvictions++
	} else {
		c.stats.WriteEvictions++
	}
	if m.Dirty {
		c.stats.DirtyEvictions++
		c.stats.Writebacks++
		c.queueWriteback(victim, m.Cache)
	}
	// The slot is reusable immediately: the simulator models timing,
	// not data, and the write-back read is flushed before any reuse is
	// issued, so it is ordered ahead on the same disk queue.
	c.freeSlot(m.Cache)
}

// queueWriteback records one dirty victim, extending the previous run
// when both its archive address and cache slot are contiguous.
func (c *CRAID) queueWriteback(orig, slot int64) {
	if last := len(c.wb) - 1; last >= 0 &&
		c.wb[last].orig+c.wb[last].n == orig &&
		c.wb[last].slot+c.wb[last].n == slot {
		c.wb[last].n++
		return
	}
	c.wb = append(c.wb, wbRun{orig: orig, slot: slot, n: 1})
}

// flushWritebacks issues the queued dirty write-backs, one I/O chain
// per contiguous run: read the current copies from P_C, then update
// P_A (the 2-read/2-write parity update per extent — the paper's "4
// additional I/Os", amortized over the run). Each chain is a branch of
// up, the running Expand's drain join; nil for eviction write-backs.
func (c *CRAID) flushWritebacks(up *join) {
	for _, r := range c.wb {
		var fn func(sim.Time)
		if up != nil {
			fn = up.branch()
		}
		c.chain(stepWriteBack, fn, c.pc, r.slot, r.orig, r.n)
	}
	c.wb = c.wb[:0]
}

// Expand performs the online upgrade (paper §4.1): dirty blocks are
// written back, the whole of P_C is invalidated, and — for shared-cache
// variants — P_C regrows across the enlarged device set, so new disks
// receive I/O from the moment they are added. P_A is left untouched:
// that is the point of CRAID.
//
// retain selects the paper's §6 "smarter rebalancing" extension instead:
// P_C is not invalidated. Live cached blocks are migrated onto the new
// cache-partition geometry (read from the old placement, parity-written
// to the new one), keeping the mapping cache and the monitor's history
// intact — hits continue through the upgrade and dirty blocks need no
// write-back. The trade-off against the paper's conservative
// invalidation: every live block moves now, instead of the hot subset
// re-copying on demand later.
//
// done, when not nil, learns the instant the upgrade's background I/O —
// dirty write-backs or live-block migrations — has fully drained: that
// instant minus the call instant is the upgrade-latency KPI the fault
// fabric records for expand@ events. An upgrade that issues no
// background I/O drains at the call instant. Chains torn down by a
// crash-restart (stale epoch) still count as drained when their timing
// completes, so done always fires.
func (c *CRAID) Expand(newDevs []disk.Device, retain bool, done func(sim.Time)) ExpandStats {
	up := c.arr.newJoin(done)
	var st ExpandStats
	if !retain {
		st.Invalidated = int64(c.table.Len())
		for _, m := range c.table.DirtyMappings() {
			st.DirtyWriteback++
			c.stats.Writebacks++
			c.queueWriteback(m.Orig, m.Cache)
		}
		c.flushWritebacks(up)
		c.table.Clear()
	}
	c.stats.Expansions++
	if len(newDevs) > 0 {
		base := c.arr.Devices()
		c.arr.AddDevices(newDevs)
		if c.sharedPC {
			for i := range newDevs {
				c.cacheDisks = append(c.cacheDisks, base+i)
			}
		}
	}
	switch {
	case !retain:
		c.rebuildPC() // resets policy, allocator and (shared) geometry
		c.flushLog()
	case c.sharedPC: // a dedicated cache keeps its geometry: nothing moves
		st.Migrated = c.migrate(up)
	}
	up.seal(c.arr.Eng.Now())
	return st
}

// rebuildPC is buildPC for a configuration that already built once: a
// failure there is a programmer-error invariant, not an input error.
func (c *CRAID) rebuildPC() {
	if err := c.buildPC(); err != nil {
		panic(err)
	}
}

// migrate regrows P_C over the current cache disks keeping every live
// mapping, and issues the chains that move the cached blocks onto the
// new geometry as branches of up. It returns the blocks moved.
func (c *CRAID) migrate(up *join) (moved int64) {
	// Collect live slots before the geometry changes.
	slots := make([]int64, 0, c.table.Len())
	c.table.Walk(func(m mapcache.Mapping) bool {
		slots = append(slots, m.Cache)
		return true
	})
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })

	oldPC := c.pc
	oldNext, oldFree := c.next, c.free
	c.rebuildPC()
	// Keep the allocator state: old slot numbers remain reserved (the
	// new P_C is strictly larger for a growth expansion).
	if c.pcData < oldNext {
		panic("core: retaining Expand shrank the cache partition")
	}
	c.next, c.free = oldNext, oldFree
	// Rebuild the policy at the new capacity, preserving residency
	// (recency order within the retained set is not preserved — the
	// policy relearns it, which costs nothing extra).
	c.table.Walk(func(m mapcache.Mapping) bool {
		c.policy.Insert(m.Orig, 1)
		return true
	})

	// Physically migrate live blocks, coalescing consecutive slots. The
	// epoch stamp drops the re-placement write if a crash-restart tears
	// this incarnation down while the old-placement read is in flight.
	for i := 0; i < len(slots); {
		j := i + 1
		for j < len(slots) && slots[j] == slots[j-1]+1 {
			j++
		}
		start, n := slots[i], int64(j-i)
		moved += n
		c.chain(stepMigrate, up.branch(), oldPC, start, start, n)
		i = j
	}
	return moved
}

// MapLogStats counts the mapping log's traffic: the records the table
// appended that reached the sink, in how many writes (one per drained
// buffer), and the fsyncs that followed them under Config.MapLogSync.
type MapLogStats struct {
	Records int64
	Bytes   int64
	Flushes int64
	Syncs   int64
}

// mapLogBufBytes holds ~1927 log records; a request that logs more
// spills to the sink mid-step, in order.
const mapLogBufBytes = 32 << 10

// mapLog is the controller's end of the dirty-translation log: the
// mapping table appends records to buf, and buf drains into Write.
type mapLog struct {
	buf   *bufio.Writer
	sink  io.Writer
	sync  interface{ Sync() error } // nil unless MapLogSync and the sink can
	stats MapLogStats
}

// Write is what buf flushes into: one call per drained buffer. An
// error makes buf refuse everything after it, so the first failure is
// the one every later flush reports.
func (l *mapLog) Write(p []byte) (int, error) {
	n, err := l.sink.Write(p)
	l.stats.Flushes++
	l.stats.Bytes += int64(n)
	if err == nil && l.sync != nil {
		l.stats.Syncs++
		err = l.sync.Sync()
	}
	return n, err
}

// SetMappingLog enables persistent logging of dirty translations to w
// (paper §4.2's failure resilience). Call before any I/O.
//
// Records are buffered and written to w once per apply step, so the
// log's durability boundary is the I/O request, not the individual
// translation; the byte stream (and therefore crash recovery) is the
// one an unbuffered log would carry. With Config.MapLogSync, a w that
// has a Sync() error method is fsynced after every write.
// CloseMappingLog writes out the tail.
func (c *CRAID) SetMappingLog(w io.Writer) {
	l := &mapLog{sink: w}
	if c.cfg.MapLogSync {
		l.sync, _ = w.(interface{ Sync() error })
	}
	l.buf = bufio.NewWriterSize(l, mapLogBufBytes)
	c.log = l
	c.table.SetLog(l.buf)
}

// flushLog marks an apply-step boundary: what the step logged is
// written out, and a log device that has failed — now or at an earlier
// step — fails the run here instead of surfacing as a teardown
// surprise. Background flush points (copy-ins, expansions) discard the
// error — it is sticky, so the next Submit returns it.
func (c *CRAID) flushLog() error {
	if c.log == nil {
		return nil
	}
	if err := c.log.buf.Flush(); err != nil {
		return fmt.Errorf("core: mapping log: %w", err)
	}
	return nil
}

// CloseMappingLog writes out what was logged since the last apply step
// (a crash recovery re-logs the translations it reinstates), detaches
// the log and reports its counters and its first write or fsync error.
// Without a log it reports zeros.
func (c *CRAID) CloseMappingLog() (MapLogStats, error) {
	if c.log == nil {
		return MapLogStats{}, nil
	}
	err := c.flushLog()
	st := c.log.stats
	st.Records = st.Bytes / mapcache.LogRecordSize
	c.table.SetLog(nil)
	c.log = nil
	return st, err
}

// Recover replays a dirty-translation log after a crash: dirty cached
// copies are reinstated (they are the only ones differing from the
// archive), clean entries start cold, exactly as §4.2 prescribes. It
// must be called on a fresh controller before any I/O; it returns the
// number of recovered mappings.
func (c *CRAID) Recover(r io.Reader) (int, error) {
	if c.table.Len() != 0 || c.next != 0 {
		return 0, fmt.Errorf("core: Recover on a non-fresh controller")
	}
	return c.recoverLog(r)
}

// recoverLog reinstates the dirty translations a log image carries
// into an empty mapping state (fresh construction or post-crash
// teardown). The log is input from outside the program (a -maplog
// file, a crash image), so every record is checked before any state
// changes: a bad image is an error, never a panic three requests later.
func (c *CRAID) recoverLog(r io.Reader) (int, error) {
	ms, err := mapcache.Recover(r)
	if err != nil {
		return 0, err
	}
	used := make(map[int64]bool, len(ms))
	var maxSlot int64 = -1
	for _, m := range ms {
		switch {
		case m.Cache < 0 || m.Cache >= c.pcData:
			// Beyond capacity, the log predates a geometry change; such
			// copies are unrecoverable from P_C and must be treated as lost.
			return 0, fmt.Errorf("core: logged slot %d outside cache capacity %d", m.Cache, c.pcData)
		case m.Orig < 0 || m.Orig >= c.DataBlocks():
			return 0, fmt.Errorf("core: logged block %d outside volume capacity %d", m.Orig, c.DataBlocks())
		case used[m.Cache]:
			return 0, fmt.Errorf("core: log maps two blocks to slot %d", m.Cache)
		}
		used[m.Cache] = true
		if m.Cache > maxSlot {
			maxSlot = m.Cache
		}
	}
	for _, m := range ms {
		c.table.Insert(m)
		c.policy.Insert(m.Orig, 1)
	}
	// Reserve the recovered slots: bump the allocator past the highest
	// and return the gaps to the free list.
	c.next = maxSlot + 1
	for s := int64(0); s < c.next; s++ {
		if !used[s] {
			c.freeSlot(s)
		}
	}
	return len(ms), nil
}

// CrashRestart models the controller dying and coming back mid-run
// (paper §4.2's failure scenario, exercised live): the mapping cache,
// policy state and allocator are torn down as a crash would lose them,
// the controller incarnation (Array.epoch) advances so in-flight
// background side effects — copy-ins, write-backs, Expand migrations,
// rebuild batches (the fault runtime relaunches those) — land as timing
// only, and the dirty-translation state is reinstated from log, exactly
// as Recover does on a fresh controller. A nil log
// restarts cold. Requests already in flight keep their device timing;
// requests submitted after the restart see the recovered state. It
// returns the number of recovered mappings.
func (c *CRAID) CrashRestart(log io.Reader) (int, error) {
	c.arr.epoch++
	c.wb = c.wb[:0] // queued write-backs die with the incarnation
	c.table.Clear()
	c.rebuildPC()
	if log == nil {
		return 0, nil
	}
	return c.recoverLog(log)
}

// allocRun reserves up to n consecutive P_C data blocks and returns the
// run. Contiguity policy (realizing §4.1's "long sequential chains"):
// a free run that fits the request wins (first-fit over coalesced
// runs), then the bump region, then the largest free fragment. The
// caller loops until its need is covered.
func (c *CRAID) allocRun(n int64) (start, got int64) {
	if s, g, ok := c.free.takeFit(n); ok {
		return s, g
	}
	if c.next < c.pcData {
		got = n
		if got > c.pcData-c.next {
			got = c.pcData - c.next
		}
		start = c.next
		c.next += got
		return start, got
	}
	if s, g, ok := c.free.takeLargest(n); ok {
		return s, g
	}
	panic("core: cache partition allocator exhausted (policy capacity mismatch)")
}

func (c *CRAID) freeSlot(s int64) { c.free.add(s, 1) }

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
