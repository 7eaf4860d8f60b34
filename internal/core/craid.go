package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"craid/internal/disk"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// One CRAID, like the sim.Engine driving it, is confined to one
// goroutine: the monitor classifies each request inline, in submission
// order, as the paper's controller does. What runs beside it is the
// replay reader goroutine (replay.go) and other whole simulations —
// cross-experiment parallelism lives in internal/experiments.Runner, one
// simulation per worker. The monitor's performance notes are in
// monitor.go.

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
// P_A (paper §3, Fig. 2). The monitor (monitor.go) decides; CRAID issues
// what it decides.
type CRAID struct {
	latencies
	arr *Array
	cfg Config

	sharedPC   bool  // P_C spread over all devices (vs dedicated SSDs)
	cacheDisks []int // devices hosting P_C
	cacheBase  int64
	pc         *span

	pa *span // archive partition

	mon monitor

	// log, when SetMappingLog attached one, buffers the table's dirty-
	// log records; flushLog drains it once per apply step.
	log *mapLog
}

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
//
// An unknown policy name is an error here, the one place it is checked.
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
	if err := c.mon.setup(cfg.Policy, c.buildPC()); err != nil {
		return nil, err
	}
	return c, nil
}

// buildPC (re)creates the cache partition over the current cacheDisks
// and returns its data capacity, which the monitor is sized to.
func (c *CRAID) buildPC() int64 {
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
	return layout.DataBlocks()
}

// Stats returns the monitor counters.
func (c *CRAID) Stats() *Stats { return &c.mon.stats }

// MappingBytes reports the mapping cache's memory footprint (paper
// §4.2 accounting).
func (c *CRAID) MappingBytes() int64 { return c.mon.table.Bytes() }

// CacheDataBlocks returns P_C's data capacity in blocks.
func (c *CRAID) CacheDataBlocks() int64 { return c.mon.pcData }

// DataBlocks implements Volume: the archive capacity (P_C holds copies,
// not extra capacity).
func (c *CRAID) DataBlocks() int64 { return c.pa.layout.DataBlocks() }

// Submit implements Volume, realizing the paper's Fig. 2 control flow:
// the monitor classifies the request's blocks against the mapping cache
// into hit and miss extents, the redirector issues the I/O each one
// needs, and the client completes when all of it has.
func (c *CRAID) Submit(rec trace.Record, done func(sim.Time)) error {
	now := c.arr.Eng.Now()
	lost0 := c.arr.lost()
	j := c.request(c.arr, rec.Op, now, done)
	c.issue(c.mon.access(rec.Op == disk.OpRead, rec.Block, rec.Count), j, nil)
	j.seal(now)
	if err := c.flushLog(); err != nil {
		return err
	}
	return c.arr.lostError(rec, lost0)
}

// issue is the redirector: it turns the monitor's decisions into I/O in
// their order. Client I/O attaches to j, write-backs to up (an Expand's
// drain join; nil for evictions), and a miss read's copy-in follows its
// P_A read (stepCopyIn). ds is the monitor's reused slice, consumed
// before its next call. Nothing re-enters CRAID during the loop (device
// completions always ride the event queue) and nothing the monitor reads
// changes when I/O is issued, so issuing after deciding is the same as
// issuing while deciding.
func (c *CRAID) issue(ds []decision, j, up *join) {
	now := c.arr.Eng.Now()
	for _, d := range ds {
		switch d.kind {
		case pcRead:
			c.trackSeq(now, 0, d.slot, d.n)
			c.pc.read(j, d.slot, d.n)
		case pcWrite:
			if d.client {
				c.trackSeq(now, 0, d.slot, d.n)
			}
			c.pc.write(j, d.slot, d.n)
		case paRead:
			c.trackSeq(now, 1, d.orig, d.n)
			c.chain(stepCopyIn, j.branch(), c.pa, d.orig, d.orig, d.n)
		case writeBack:
			var fn func(sim.Time)
			if up != nil {
				fn = up.branch()
			}
			c.chain(stepWriteBack, fn, c.pc, d.slot, d.orig, d.n)
		}
	}
}

// copyIn inserts [b, b+n) into P_C as clean copies (background; the
// client was already served from P_A).
func (c *CRAID) copyIn(b, n int64) {
	detached := c.arr.newJoin(nil)
	c.issue(c.mon.copyIn(b, n), detached, nil)
	detached.seal(c.arr.Eng.Now())
	c.flushLog() // background inserts are an apply step of their own
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
		c.issue(c.mon.invalidate(&st), nil, up)
	}
	c.mon.stats.Expansions++
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
		c.mon.regrow(c.buildPC()) // resets policy, allocator and (shared) geometry
		c.flushLog()
	case c.sharedPC: // a dedicated cache keeps its geometry: nothing moves
		st.Migrated = c.migrate(up)
	}
	up.seal(c.arr.Eng.Now())
	return st
}

// migrate regrows P_C over the current cache disks keeping every live
// mapping, and issues the chains that move the cached blocks onto the
// new geometry as branches of up. It returns the blocks moved.
func (c *CRAID) migrate(up *join) (moved int64) {
	oldPC := c.pc
	slots := c.mon.retain(c.buildPC())
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

	// image, under a fault plan that crashes the controller, holds every
	// byte written to sink: what the crash recovers from (keepLogImage).
	image *bytes.Buffer
}

// Write is what buf flushes into: one call per drained buffer. An
// error makes buf refuse everything after it, so the first failure is
// the one every later flush reports.
func (l *mapLog) Write(p []byte) (int, error) {
	if l.image != nil {
		l.image.Write(p)
	}
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
	c.mon.table.SetLog(l.buf)
}

// keepLogImage makes the mapping log keep an in-memory image of every
// byte it writes, for crash events; without a log it attaches one.
func (c *CRAID) keepLogImage() {
	if c.log == nil {
		c.SetMappingLog(io.Discard)
	}
	c.log.image = new(bytes.Buffer)
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
	c.mon.table.SetLog(nil)
	c.log = nil
	return st, err
}

// CrashRestart models the controller dying and coming back mid-run
// (paper §4.2's failure scenario, exercised live): the mapping cache,
// policy state and allocator are torn down as a crash would lose them,
// the controller incarnation (Array.epoch) advances so in-flight
// background side effects — copy-ins, write-backs, Expand migrations,
// rebuild batches (the fault runtime relaunches those) — land as timing
// only, and the dirty-translation state is reinstated from log (on a
// fresh controller, one another life wrote). A nil log restarts cold.
// Requests already in flight keep their device timing; requests
// submitted after the restart see the recovered state. It returns the
// number of recovered mappings.
func (c *CRAID) CrashRestart(log io.Reader) (int, error) {
	c.arr.epoch++
	return c.mon.recover(c.buildPC(), log, c.DataBlocks())
}
