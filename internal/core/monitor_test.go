package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"craid/internal/cache"
	"craid/internal/mapcache"
)

// TestMonitorMatchesPerBlockReference drives monitors directly — no
// engine, array or device — through seeded mixed requests, copy-ins that
// complete at once or later in random order, invalidating and retaining
// expansions and crash recoveries, and checks every decision against
// refMonitor, the monitor's documented semantics in per-block point
// operations. P_C sizes are small against requests of up to 64 blocks,
// so every policy evicts heavily and drops newborns of its own sub-runs.
func TestMonitorMatchesPerBlockReference(t *testing.T) {
	for _, name := range cache.Names() {
		for i, capacity := range []int64{12, 40, 96} {
			t.Run(fmt.Sprintf("%s/%d", name, capacity), func(t *testing.T) {
				runMonitorReference(t, name, capacity, int64(7+i))
			})
		}
	}
}

// refMonitor is the reference: a Go map from archive block to its slot
// and dirty flag, and a second policy driven one block at a time. It
// checks the slots the monitor picks instead of predicting them.
type refMonitor struct {
	name     string
	capacity int64
	blocks   map[int64]refEntry
	used     map[int64]int64 // slot → the block it holds
	policy   cache.Policy
	stats    Stats
}

type refEntry struct {
	slot  int64
	dirty bool
}

func newRefMonitor(name string, capacity int64) *refMonitor {
	r := &refMonitor{name: name, blocks: map[int64]refEntry{}, used: map[int64]int64{}}
	r.reset(capacity)
	return r
}

// reset builds a fresh policy at capacity, keeping the blocks.
func (r *refMonitor) reset(capacity int64) {
	r.capacity = capacity
	var err error
	r.policy, err = cache.New(r.name, int(capacity), cache.Config{
		Dirty: func(k cache.Key) bool { return r.blocks[k].dirty },
	})
	if err != nil {
		panic(err)
	}
}

func (r *refMonitor) drop(orig int64) refEntry {
	e := r.blocks[orig]
	delete(r.blocks, orig)
	delete(r.used, e.slot)
	return e
}

func (r *refMonitor) countEviction(byRead bool) {
	r.stats.Evictions++
	if byRead {
		r.stats.ReadEvictions++
	} else {
		r.stats.WriteEvictions++
	}
}

// gap is the number of unmapped blocks from b, stopping at end.
func (r *refMonitor) gap(b, end int64) int64 {
	n := int64(0)
	for b+n < end {
		if _, ok := r.blocks[b+n]; ok {
			break
		}
		n++
	}
	return n
}

func (r *refMonitor) access(read bool, b, count int64, s *script) {
	if read {
		r.stats.ReadBlocks += count
	} else {
		r.stats.WriteBlocks += count
	}
	for end := b + count; b < end; {
		e, ok := r.blocks[b]
		switch {
		case ok && read:
			r.policy.Access(b, count)
			r.stats.ReadHits++
			s.expect(pcRead, b, e.slot, false)
		case ok:
			r.policy.Access(b, count)
			r.stats.WriteHits++
			r.blocks[b] = refEntry{e.slot, true}
			s.expect(pcWrite, b, e.slot, true)
		case read:
			s.expect(paRead, b, 0, false)
		default:
			n := r.gap(b, end)
			r.insert(b, n, true, false, count, s)
			b += n
			continue
		}
		b++
	}
}

func (r *refMonitor) copyIn(b, n int64, s *script) {
	r.stats.CopyIns += n
	r.insert(b, n, false, true, n, s)
}

// insert is insertRuns: a resident block is accessed (and rewritten if
// dirty); each maximal unmapped sub-run is inserted into the policy
// before its survivors are placed, and a victim from that same sub-run
// is a newborn dropped before it had a slot.
func (r *refMonitor) insert(b, n int64, dirty, byRead bool, reqSize int64, s *script) {
	for end := b + n; b < end; {
		if e, ok := r.blocks[b]; ok {
			r.policy.Access(b, reqSize)
			if dirty {
				r.blocks[b] = refEntry{e.slot, true}
				s.expect(pcWrite, b, e.slot, false)
			}
			b++
			continue
		}
		run := r.gap(b, end)
		born := map[int64]bool{}
		for k := b; k < b+run; k++ {
			born[k] = true
		}
		for k := b; k < b+run; k++ {
			v, ev := r.policy.Insert(k, reqSize)
			if !ev {
				continue
			}
			r.countEviction(byRead)
			if born[v] {
				delete(born, v)
				continue
			}
			if _, ok := r.blocks[v]; !ok {
				s.t.Fatalf("%s: reference policy evicted unmapped block %d", s.what, v)
			}
			if e := r.drop(v); e.dirty {
				r.stats.DirtyEvictions++
				r.stats.Writebacks++
				s.expect(writeBack, v, e.slot, false)
			}
		}
		for k := b; k < b+run; k++ {
			if born[k] {
				slot := s.place(k, dirty, r)
				r.blocks[k] = refEntry{slot, dirty}
				r.used[slot] = k
			}
		}
		b += run
	}
}

func (r *refMonitor) sortedOrigs() []int64 {
	var origs []int64
	for o := range r.blocks {
		origs = append(origs, o)
	}
	slices.Sort(origs)
	return origs
}

func (r *refMonitor) invalidate(s *script) ExpandStats {
	st := ExpandStats{Invalidated: int64(len(r.blocks))}
	for _, o := range r.sortedOrigs() {
		if e := r.drop(o); e.dirty {
			st.DirtyWriteback++
			r.stats.Writebacks++
			s.expect(writeBack, o, e.slot, false)
		}
	}
	return st
}

// refill re-inserts every block into a fresh policy at capacity, in
// ascending order — what a retaining expansion and a recovery do.
func (r *refMonitor) refill(capacity int64) {
	r.reset(capacity)
	for _, o := range r.sortedOrigs() {
		r.policy.Insert(o, 1)
	}
}

func (r *refMonitor) retain(capacity int64) []int64 {
	var slots []int64
	for slot := range r.used {
		slots = append(slots, slot)
	}
	slices.Sort(slots)
	r.refill(capacity)
	return slots
}

// crash keeps only the dirty blocks, the ones the log recovers.
func (r *refMonitor) crash() int {
	for o, e := range r.blocks {
		if !e.dirty {
			r.drop(o)
		}
	}
	r.refill(r.capacity)
	return len(r.blocks)
}

// blockIO is one block of a decision.
type blockIO struct {
	kind   decisionKind
	client bool
	orig   int64
	slot   int64
}

// script is one monitor call's decisions, one entry per block, which
// the reference consumes in order.
type script struct {
	t    *testing.T
	what string
	ios  []blockIO
}

func newScript(t *testing.T, what string, ds []decision) *script {
	s := &script{t: t, what: what}
	for _, d := range ds {
		for i := int64(0); i < d.n; i++ {
			io := blockIO{kind: d.kind, client: d.client, orig: d.orig + i}
			if d.kind != paRead {
				io.slot = d.slot + i
			}
			s.ios = append(s.ios, io)
		}
	}
	return s
}

func (s *script) next(want blockIO) blockIO {
	s.t.Helper()
	if len(s.ios) == 0 {
		s.t.Fatalf("%s: monitor decided nothing where the reference wants %+v", s.what, want)
	}
	got := s.ios[0]
	s.ios = s.ios[1:]
	return got
}

func (s *script) expect(kind decisionKind, orig, slot int64, client bool) {
	s.t.Helper()
	want := blockIO{kind, client, orig, slot}
	if got := s.next(want); got != want {
		s.t.Fatalf("%s: monitor decided %+v, reference wants %+v", s.what, got, want)
	}
}

// place checks a placement of orig: a P_C write to a free slot below
// capacity. It returns the slot.
func (s *script) place(orig int64, dirty bool, r *refMonitor) int64 {
	s.t.Helper()
	want := blockIO{kind: pcWrite, client: dirty, orig: orig}
	got := s.next(want)
	if got.kind != pcWrite || got.orig != orig || got.client != dirty {
		s.t.Fatalf("%s: monitor decided %+v, reference wants a placement %+v", s.what, got, want)
	}
	if got.slot < 0 || got.slot >= r.capacity {
		s.t.Fatalf("%s: block %d placed at slot %d, capacity %d", s.what, orig, got.slot, r.capacity)
	}
	if other, ok := r.used[got.slot]; ok {
		s.t.Fatalf("%s: block %d placed at slot %d, which block %d holds", s.what, orig, got.slot, other)
	}
	return got.slot
}

func (s *script) done() {
	s.t.Helper()
	if len(s.ios) > 0 {
		s.t.Fatalf("%s: monitor decided %+v beyond the reference", s.what, s.ios[0])
	}
}

func runMonitorReference(t *testing.T, name string, base, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	capacity := base
	span := 3*base + 64 // archive blocks
	m := new(monitor)
	if err := m.setup(name, capacity); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	m.table.SetLog(&log)
	r := newRefMonitor(name, capacity)
	type run struct{ orig, n int64 }
	var deferred []run

	check := func(what string) {
		t.Helper()
		if m.stats != r.stats {
			t.Fatalf("%s: stats %+v, reference %+v", what, m.stats, r.stats)
		}
		if m.table.Len() != len(r.blocks) {
			t.Fatalf("%s: %d mappings, reference %d", what, m.table.Len(), len(r.blocks))
		}
		m.table.Walk(func(mp mapcache.Mapping) bool {
			if e, ok := r.blocks[mp.Orig]; !ok || e != (refEntry{mp.Cache, mp.Dirty}) {
				t.Fatalf("%s: mapping %+v, reference %+v (held: %v)", what, mp, e, ok)
			}
			return true
		})
		got, want := m.policy.Keys(), r.policy.Keys()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: policy holds %d keys, reference %d, or other ones", what, len(got), len(want))
		}
		checkMonitor(t, m)
		dirty := m.table.DirtyMappings()
		rec, err := mapcache.Recover(bytes.NewReader(log.Bytes()))
		if err != nil || !slices.Equal(rec, dirty) {
			t.Fatalf("%s: the log recovers %d mappings (%v), the table holds %d dirty ones", what, len(rec), err, len(dirty))
		}
		// Checkpoint the log as the dirty set it recovers, so the next
		// check reads only what the next step appends beyond it.
		log.Reset()
		w := mapcache.New()
		w.SetLog(&log)
		for _, d := range dirty {
			w.Insert(d)
		}
	}
	copyIn := func(p run, step int) {
		what := fmt.Sprintf("step %d: copy-in [%d,+%d)", step, p.orig, p.n)
		s := newScript(t, what, m.copyIn(p.orig, p.n))
		r.copyIn(p.orig, p.n, s)
		s.done()
		check(what)
	}

	for step := 0; step < 1500; step++ {
		switch x := rng.Intn(100); {
		case x < 2:
			what := fmt.Sprintf("step %d: invalidate", step)
			var st ExpandStats
			s := newScript(t, what, m.invalidate(&st))
			if want := r.invalidate(s); st != want {
				t.Fatalf("%s: %+v, reference %+v", what, st, want)
			}
			s.done()
			capacity = base + rng.Int63n(16) // the new geometry need not hold the old slots
			m.regrow(capacity)
			r.reset(capacity)
			check(what)
		case x < 4:
			what := fmt.Sprintf("step %d: retain", step)
			capacity += rng.Int63n(8) // the new geometry holds every old slot
			if got, want := m.retain(capacity), r.retain(capacity); !slices.Equal(got, want) {
				t.Fatalf("%s: live slots %v, reference %v", what, got, want)
			}
			check(what)
		case x < 6:
			what := fmt.Sprintf("step %d: crash", step)
			n, err := m.recover(capacity, bytes.NewReader(log.Bytes()), span)
			if want := r.crash(); err != nil || n != want {
				t.Fatalf("%s: recovered %d (%v), reference %d", what, n, err, want)
			}
			deferred = nil // a crash makes in-flight copy-ins stale
			check(what)
		case x < 30 && len(deferred) > 0:
			i := rng.Intn(len(deferred))
			p := deferred[i]
			deferred = slices.Delete(deferred, i, i+1)
			copyIn(p, step)
		default:
			read := rng.Intn(2) == 0
			count := 1 + rng.Int63n(64)
			b := rng.Int63n(span - count)
			what := fmt.Sprintf("step %d: read=%v [%d,+%d)", step, read, b, count)
			ds := m.access(read, b, count)
			s := newScript(t, what, ds)
			var now []run
			for _, d := range ds {
				if d.kind != paRead {
					continue
				}
				if rng.Intn(2) == 0 {
					now = append(now, run{d.orig, d.n})
				} else {
					deferred = append(deferred, run{d.orig, d.n})
				}
			}
			r.access(read, b, count, s)
			s.done()
			check(what)
			for _, p := range now {
				copyIn(p, step)
			}
		}
	}
	if r.stats.DirtyEvictions == 0 || r.stats.Evictions == r.stats.DirtyEvictions {
		t.Fatalf("eviction mix not exercised: %+v", r.stats)
	}
}
