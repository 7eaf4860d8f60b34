package core

import (
	"math/rand"
	"testing"

	"craid/internal/disk"
	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// mustCRAID is NewCRAID for tests whose configurations are valid by
// construction.
func mustCRAID(arr *Array, cfg Config, sharedPC bool, cacheDisks []int, cacheBase int64,
	archiveLayout raid.Layout, archiveDisks []int, archiveBase int64) *CRAID {
	c, err := NewCRAID(arr, cfg, sharedPC, cacheDisks, cacheBase, archiveLayout, archiveDisks, archiveBase)
	if err != nil {
		panic(err)
	}
	return c
}

// randomWorkload renders a deterministic random trace that hammers the
// monitor: mixed ops, skewed sizes, addresses spread over span blocks.
func randomWorkload(seed int64, n int, span int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		op := disk.OpRead
		if rng.Intn(3) == 0 {
			op = disk.OpWrite
		}
		count := int64(1 + rng.Intn(64))
		block := rng.Int63n(span - count)
		recs[i] = trace.Record{
			Time:  sim.Time(i) * 10 * sim.Microsecond,
			Op:    op,
			Block: block,
			Count: count,
		}
	}
	return recs
}

// pacedWorkload is randomWorkload slowed to one record per gap: HDDs
// serve in milliseconds, and at randomWorkload's 10 µs spacing their
// LOOK queues and the controller's pools grow with the trace.
func pacedWorkload(seed int64, n int, gap sim.Time) []trace.Record {
	recs := randomWorkload(seed, n, 12000)
	for i := range recs {
		recs[i].Time = sim.Time(i) * gap
	}
	return recs
}

// replayAll replays recs on c, requires every record to be served, and
// checks the controller's structural invariants once the engine has
// drained.
func replayAll(t *testing.T, eng *sim.Engine, c *CRAID, recs []trace.Record) {
	t.Helper()
	n, err := Replay(eng, c, trace.NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("replayed %d of %d", n, len(recs))
	}
	checkInvariants(t, c)
}

// outcome is the fingerprint the determinism and equivalence tests
// compare: the full Stats struct, I/O totals over all devices, the
// mapping population, and the response-time distributions (count, mean,
// p50, p99, max).
type outcome struct {
	stats    Stats
	reads    int64
	writes   int64
	maps     int
	readLat  string
	writeLat string
}

func outcomeOf(c *CRAID, arr *Array) outcome {
	r, w := ioTotals(arr)
	return outcome{
		stats: *c.Stats(), reads: r, writes: w, maps: c.table.Len(),
		readLat:  c.ReadLatency().String(),
		writeLat: c.WriteLatency().String(),
	}
}

// checkInvariants checks, independently of any other run of the code,
// that the three structures the monitor keeps in lockstep — mapping
// cache, replacement policy, P_C slot allocator — agree with each
// other. It holds whenever no Submit is on the stack: between direct
// submissions, after a replay, after Expand/CrashRestart.
func checkInvariants(t *testing.T, c *CRAID) {
	t.Helper()
	checkDrained(t, c.arr)
	if c.table.Len() != c.policy.Len() {
		t.Fatalf("invariant: table holds %d mappings, policy %d keys", c.table.Len(), c.policy.Len())
	}
	if c.next < 0 || c.next > c.pcData {
		t.Fatalf("invariant: bump pointer %d outside [0, %d]", c.next, c.pcData)
	}
	for _, k := range c.policy.Keys() {
		if _, ok := c.table.Lookup(k); !ok {
			t.Fatalf("invariant: policy key %d has no mapping", k)
		}
	}
	slots := make(map[int64]int64, c.table.Len())
	c.table.Walk(func(m mapcache.Mapping) bool {
		if !c.policy.Contains(m.Orig) {
			t.Fatalf("invariant: mapping %d is unknown to the policy", m.Orig)
		}
		if m.Cache < 0 || m.Cache >= c.next {
			t.Fatalf("invariant: mapping %d on slot %d, allocator handed out [0, %d)", m.Orig, m.Cache, c.next)
		}
		if other, dup := slots[m.Cache]; dup {
			t.Fatalf("invariant: blocks %d and %d share slot %d", other, m.Orig, m.Cache)
		}
		slots[m.Cache] = m.Orig
		if c.table.IsDirty(m.Orig) != m.Dirty {
			t.Fatalf("invariant: IsDirty(%d) = %v, mapping says %v", m.Orig, !m.Dirty, m.Dirty)
		}
		return true
	})
	prevEnd := int64(-1) // adjacent runs must have been coalesced
	for _, r := range c.free.runs {
		if r.start >= r.end || r.start <= prevEnd || r.start < 0 || r.end > c.next {
			t.Fatalf("invariant: free run [%d, %d) after end %d, allocator handed out [0, %d)",
				r.start, r.end, prevEnd, c.next)
		}
		for s := r.start; s < r.end; s++ {
			if orig, used := slots[s]; used {
				t.Fatalf("invariant: slot %d is free and holds block %d", s, orig)
			}
		}
		prevEnd = r.end
	}
	if mapped, free := int64(len(slots)), c.free.size(); mapped+free != c.next {
		t.Fatalf("invariant: %d mapped + %d free slots, allocator handed out %d", mapped, free, c.next)
	}
}

// checkDrained checks that no continuation was ever lost: once the
// engine has drained, every join the array allocated — and, under a
// fault plan, every retry op — is back on its freelist. A dropped
// completion, or a chain that forgets to tell the branch it was handed
// (a stale-epoch write-back skipping its upgrade branch, say), leaves
// one missing. With events still pending (the test stopped mid-run)
// there is nothing to conclude.
func checkDrained(t *testing.T, a *Array) {
	t.Helper()
	if a.Eng.Pending() != 0 {
		return
	}
	free := 0
	for j := a.joinFree; j != nil; j = j.next {
		free++
	}
	if free != a.joinsMade {
		t.Fatalf("invariant: %d joins allocated, %d back on the freelist after the engine drained", a.joinsMade, free)
	}
	if f := a.faults; f != nil {
		free = 0
		for r := f.retryFree; r != nil; r = r.next {
			free++
		}
		if free != f.retriesMade {
			t.Fatalf("invariant: %d retry ops allocated, %d back on the freelist after the engine drained", f.retriesMade, free)
		}
	}
}
