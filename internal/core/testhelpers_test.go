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
	st, err := Replay(eng, c, trace.NewSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != int64(len(recs)) {
		t.Fatalf("replayed %d of %d", st.Records, len(recs))
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
		stats: *c.Stats(), reads: r, writes: w, maps: c.mon.table.Len(),
		readLat:  c.ReadLatency().String(),
		writeLat: c.WriteLatency().String(),
	}
}

// checkInvariants checks, independently of any other run of the code,
// that no continuation was lost (checkDrained) and that the monitor's
// structures agree with each other (checkMonitor). It holds whenever no
// Submit is on the stack: between direct submissions, after a replay,
// after Expand/CrashRestart.
func checkInvariants(t *testing.T, c *CRAID) {
	t.Helper()
	checkDrained(t, c.arr)
	checkMonitor(t, &c.mon)
}

// checkMonitor checks that the three structures the monitor keeps in
// lockstep — mapping cache, replacement policy, P_C slot allocator —
// agree with each other.
func checkMonitor(t *testing.T, m *monitor) {
	t.Helper()
	if m.table.Len() != m.policy.Len() {
		t.Fatalf("invariant: table holds %d mappings, policy %d keys", m.table.Len(), m.policy.Len())
	}
	if m.next < 0 || m.next > m.pcData {
		t.Fatalf("invariant: bump pointer %d outside [0, %d]", m.next, m.pcData)
	}
	for _, k := range m.policy.Keys() {
		if _, ok := m.table.Lookup(k); !ok {
			t.Fatalf("invariant: policy key %d has no mapping", k)
		}
	}
	slots := make(map[int64]int64, m.table.Len())
	m.table.Walk(func(mp mapcache.Mapping) bool {
		if !m.policy.Contains(mp.Orig) {
			t.Fatalf("invariant: mapping %d is unknown to the policy", mp.Orig)
		}
		if mp.Cache < 0 || mp.Cache >= m.next {
			t.Fatalf("invariant: mapping %d on slot %d, allocator handed out [0, %d)", mp.Orig, mp.Cache, m.next)
		}
		if other, dup := slots[mp.Cache]; dup {
			t.Fatalf("invariant: blocks %d and %d share slot %d", other, mp.Orig, mp.Cache)
		}
		slots[mp.Cache] = mp.Orig
		if m.table.IsDirty(mp.Orig) != mp.Dirty {
			t.Fatalf("invariant: IsDirty(%d) = %v, mapping says %v", mp.Orig, !mp.Dirty, mp.Dirty)
		}
		return true
	})
	prevEnd := int64(-1) // adjacent runs must have been coalesced
	for _, r := range m.free.runs {
		if r.start >= r.end || r.start <= prevEnd || r.start < 0 || r.end > m.next {
			t.Fatalf("invariant: free run [%d, %d) after end %d, allocator handed out [0, %d)",
				r.start, r.end, prevEnd, m.next)
		}
		for s := r.start; s < r.end; s++ {
			if orig, used := slots[s]; used {
				t.Fatalf("invariant: slot %d is free and holds block %d", s, orig)
			}
		}
		prevEnd = r.end
	}
	if mapped, free := int64(len(slots)), m.free.size(); mapped+free != m.next {
		t.Fatalf("invariant: %d mapped + %d free slots, allocator handed out %d", mapped, free, m.next)
	}
}

// checkDrained checks that no continuation was ever lost: once the
// engine has drained, every join the array allocated — retry joins under
// a fault plan included — is back on the freelist. A dropped
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
}
