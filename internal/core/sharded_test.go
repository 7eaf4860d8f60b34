package core

import (
	"bytes"
	"math/rand"
	"testing"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// newShardedCRAID is newTestCRAID with a configurable mapping-index
// shard count.
func newShardedCRAID(eng *sim.Engine, cachePerDisk int64, shards int) (*CRAID, *Array) {
	arr := nullArray(eng, 4, 100000)
	disks := []int{0, 1, 2, 3}
	paLayout := raid.NewRAID5(4, 4, 4096, 4)
	c := mustCRAID(arr, Config{
		Policy:       "WLRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  4,
		StripeUnit:   4,
		MapShards:    shards,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
	return c, arr
}

// randomWorkload renders a deterministic random trace that hammers the
// monitor: mixed ops, skewed sizes, addresses spanning many shard
// boundaries of every shard count under test.
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

// TestShardCountStatsBitIdentical is the PR's acceptance property at
// the controller level: hit, replacement and eviction ratios — indeed
// the entire Stats struct and every device counter — are bit-identical
// across mapping-index shard counts on random workloads.
func TestShardCountStatsBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		recs := randomWorkload(seed, 4000, 12000)

		type outcome struct {
			stats  Stats
			reads  int64
			writes int64
			maps   int
		}
		var ref outcome
		for i, shards := range []int{1, 2, 5, 16} {
			eng := sim.NewEngine()
			c, arr := newShardedCRAID(eng, 64, shards)
			n, err := Replay(eng, c, trace.NewSlice(recs))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(recs)) {
				t.Fatalf("replayed %d of %d", n, len(recs))
			}
			r, w := ioTotals(arr)
			got := outcome{stats: *c.Stats(), reads: r, writes: w, maps: c.table.Len()}
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("seed %d shards=%d: outcome diverged\n got %+v\nwant %+v",
					seed, shards, got, ref)
			}
		}
	}
}

// TestShardedRecoverFromSingleShardLog writes a mapping log under a
// 1-shard controller, then recovers it into an N-shard controller: the
// recovered state, subsequent hit behavior and allocator placement must
// match a 1-shard recovery exactly.
func TestShardedRecoverFromSingleShardLog(t *testing.T) {
	var log bytes.Buffer
	eng := sim.NewEngine()
	c, _ := newShardedCRAID(eng, 64, 1)
	c.SetMappingLog(&log)
	submitAndRun(eng, c, disk.OpWrite, 10, 3)   // dirty
	submitAndRun(eng, c, disk.OpWrite, 2000, 5) // dirty, far shard
	submitAndRun(eng, c, disk.OpRead, 100, 2)   // clean
	wantDirty := c.table.DirtyMappings()
	if len(wantDirty) != 8 {
		t.Fatalf("precondition: %d dirty mappings, want 8", len(wantDirty))
	}

	logBytes := log.Bytes()
	for _, shards := range []int{1, 4, 16} {
		eng2 := sim.NewEngine()
		c2, _ := newShardedCRAID(eng2, 64, shards)
		n, err := c2.Recover(bytes.NewReader(logBytes))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if n != 8 {
			t.Fatalf("shards=%d: recovered %d mappings, want 8", shards, n)
		}
		got := c2.table.DirtyMappings()
		for i := range wantDirty {
			if got[i] != wantDirty[i] {
				t.Fatalf("shards=%d: dirty[%d] = %+v, want %+v", shards, i, got[i], wantDirty[i])
			}
		}
		if _, ok := c2.table.Lookup(100); ok {
			t.Errorf("shards=%d: clean mapping survived the crash", shards)
		}
		// Recovered blocks hit from P_C.
		submitAndRun(eng2, c2, disk.OpRead, 10, 3)
		submitAndRun(eng2, c2, disk.OpRead, 2000, 5)
		if c2.Stats().ReadHits != 8 {
			t.Errorf("shards=%d: recovered blocks hit %d of 8", shards, c2.Stats().ReadHits)
		}
		// The allocator must not hand out recovered slots.
		submitAndRun(eng2, c2, disk.OpWrite, 500, 1)
		m, _ := c2.table.Lookup(500)
		for _, d := range wantDirty {
			if m.Cache == d.Cache {
				t.Errorf("shards=%d: allocator reused recovered slot %d", shards, m.Cache)
			}
		}
	}
}

// TestShardedExpandMatchesSingleShard runs the same workload + online
// expansion at several shard counts: ExpandStats and post-expansion
// monitor stats must be identical, and the rebuilt sharded index must
// keep serving (Expand clears it; ExpandRetain preserves it).
func TestShardedExpandMatchesSingleShard(t *testing.T) {
	run := func(shards int, retain bool) (ExpandStats, Stats, int) {
		eng := sim.NewEngine()
		c, _ := newShardedCRAID(eng, 64, shards)
		recs := randomWorkload(5, 1500, 8000)
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			t.Fatal(err)
		}
		var newDevs []disk.Device
		for i := 0; i < 2; i++ {
			newDevs = append(newDevs, disk.NewNullDevice(eng, "new", 100000))
		}
		var st ExpandStats
		if retain {
			st = c.ExpandRetain(newDevs)
		} else {
			st = c.Expand(newDevs)
		}
		eng.Run()
		// Post-expansion traffic exercises the rebuilt (or retained)
		// sharded index over the grown cache partition.
		for i := int64(0); i < 50; i++ {
			submitAndRun(eng, c, disk.OpWrite, i*37%4000, 4)
			submitAndRun(eng, c, disk.OpRead, i*53%4000, 4)
		}
		return st, *c.Stats(), c.table.Len()
	}

	for _, retain := range []bool{false, true} {
		refExp, refStats, refLen := run(1, retain)
		for _, shards := range []int{4, 16} {
			gotExp, gotStats, gotLen := run(shards, retain)
			if gotExp != refExp {
				t.Errorf("retain=%v shards=%d: ExpandStats %+v, want %+v", retain, shards, gotExp, refExp)
			}
			if gotStats != refStats {
				t.Errorf("retain=%v shards=%d: Stats diverged\n got %+v\nwant %+v", retain, shards, gotStats, refStats)
			}
			if gotLen != refLen {
				t.Errorf("retain=%v shards=%d: %d mappings, want %d", retain, shards, gotLen, refLen)
			}
		}
	}
}
