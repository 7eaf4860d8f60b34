package core

import (
	"testing"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// warmCRAID builds a CRAID on instant devices and warms a working set
// that fits entirely in P_C, so subsequent Submits are pure hits.
func warmCRAID(t *testing.T, policy string) (*sim.Engine, *CRAID) {
	t.Helper()
	eng := sim.NewEngine()
	arr := nullArray(eng, 10, 1<<30)
	disks := make([]int, 10)
	for i := range disks {
		disks[i] = i
	}
	paLayout := raid.NewRAID5(10, 10, 400_000, 32)
	c := mustCRAID(arr, Config{
		Policy:       policy,
		CachePerDisk: 8192,
		ParityGroup:  10,
		StripeUnit:   32,
	}, true, disks, 0, paLayout, disks, 8192)
	for b := int64(0); b < 1<<16; b += 256 {
		c.Submit(trace.Record{Op: disk.OpWrite, Block: b, Count: 256}, nil)
		eng.Run()
		c.Submit(trace.Record{Op: disk.OpRead, Block: b, Count: 256}, nil)
		eng.Run()
	}
	return eng, c
}

// replayAllocs measures the total allocations of one full replay of n
// random records through a fresh engine and controller.
func replayAllocs(t *testing.T, n int) float64 {
	t.Helper()
	recs := randomWorkload(5, n, 12000)
	var c *CRAID
	allocs := testing.AllocsPerRun(5, func() {
		eng := sim.NewEngine()
		c, _ = newTestCRAID(eng, 64)
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			t.Fatal(err)
		}
	})
	checkInvariants(t, c) // outside the measurement: the check allocates
	return allocs
}

// TestReplayAllocsPerRecordZero pins the whole timed replay path —
// scheduling, pump, cache decisions, RMW fan-out, completion events —
// at zero allocations per record: tripling the trace must leave the
// total allocation count within a small constant (pipeline batch
// boundaries), i.e. every per-record control structure is pooled.
func TestReplayAllocsPerRecordZero(t *testing.T) {
	// The smaller run is already past pool warm-up: the freelists (joins,
	// RMW ops, device completions) and growable structures (histogram
	// buckets, device queues) reach their high-water marks within the
	// first few thousand records; after that every record must ride
	// recycled structures only.
	small := replayAllocs(t, 6000)
	large := replayAllocs(t, 18000)
	if large-small > 8 {
		t.Fatalf("replay allocations scale with the trace: %.1f for 6000 records, %.1f for 18000 (%.4f per record, want ~0)",
			small, large, (large-small)/12000)
	}
}

// replayAllocsHDD is replayAllocs on five Cheetah models with a P_C of
// 256 blocks under a 12000-block working set: nearly every record
// misses, so the replay is inserts, evictions, dirty write-backs and
// parity read-modify-write against devices that queue, absorb writes
// and destage. Arrivals are paced so the device queues stay bounded.
func replayAllocsHDD(t *testing.T, n int) float64 {
	t.Helper()
	recs := pacedWorkload(5, n, 50*sim.Millisecond)
	var c *CRAID
	allocs := testing.AllocsPerRun(3, func() {
		eng := sim.NewEngine()
		devs := make([]disk.Device, 5)
		for i := range devs {
			devs[i] = smallCheetah(eng, i, 1024)
		}
		c = fiveHDDCRAID(NewArray(eng, devs))
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.DirtyEvictions == 0 || st.ReadHits+st.WriteHits > (st.ReadBlocks+st.WriteBlocks)/2 {
			t.Fatalf("replay is not miss-heavy with write-backs: %+v", *st)
		}
	})
	checkInvariants(t, c) // outside the measurement: the check allocates
	return allocs
}

// TestReplayAllocsPerRecordZeroHDD is TestReplayAllocsPerRecordZero on
// the device model that queues. The null-device gate above cannot see
// what a queued device does with a request: it read "0 allocs/record"
// while every HDD submission heap-allocated its Request. Mechanical
// service times make bursts, so the high-water marks of the join pool
// and of the event and device queues still creep up a few dozen objects
// over thousands of records; the bound sits far below the one
// allocation per I/O — tens per record — that any unpooled structure
// costs.
func TestReplayAllocsPerRecordZeroHDD(t *testing.T) {
	small := replayAllocsHDD(t, 2000)
	large := replayAllocsHDD(t, 6000)
	if large-small > 0.05*4000 {
		t.Fatalf("HDD replay allocations scale with the trace: %.1f for 2000 records, %.1f for 6000 (%.4f per record, want ~0)",
			small, large, (large-small)/4000)
	}
}

// TestSubmitWarmAllocFree is the monitor's steady-state allocation
// gate: on a warm cache, a whole Submit — classification, policy
// access, dirty-flip logging hooks, redirected I/O, latency recording,
// the event engine drain — performs zero allocations, for every
// policy. This is what keeps GC entirely out of the hot loop at
// millions of simulated requests per second.
func TestSubmitWarmAllocFree(t *testing.T) {
	for _, policy := range []string{"LRU", "WLRU", "LFUDA", "GDSF", "ARC"} {
		t.Run(policy, func(t *testing.T) {
			eng, c := warmCRAID(t, policy)
			b := int64(0)
			read := trace.Record{Op: disk.OpRead, Count: 256}
			write := trace.Record{Op: disk.OpWrite, Count: 256}
			if allocs := testing.AllocsPerRun(300, func() {
				read.Block = b
				c.Submit(read, nil)
				eng.Run()
				write.Block = b
				c.Submit(write, nil)
				eng.Run()
				b = (b + 256) % (1 << 16)
			}); allocs > 0 {
				t.Fatalf("warm Submit allocated %.1f per round (policy %s), want 0", allocs, policy)
			}
			if hits := c.Stats().ReadHits; hits == 0 {
				t.Fatal("warm workload produced no read hits; gate is not testing the hit path")
			}
			checkInvariants(t, c)
		})
	}
}

// TestSpanWalkWarmAllocFree is the redirector's own allocation gate: on
// a warm span — join pool, engine queues and extent buffer at their
// high-water marks — a read walk and a write walk (read-modify-write
// cycles included) allocate nothing, on RAID-5, RAID-6 and a
// SpreadLayout archive, for a one-unit run and for a run longer than
// the span's inline extents once the buffer has grown onto the heap.
// Each walk warms a span of its own, so each must keep what it grew.
func TestSpanWalkWarmAllocFree(t *testing.T) {
	const disks, perDisk, unit = 10, 1 << 14, 8
	r5 := raid.NewRAID5(disks, 5, perDisk, unit)
	for name, layout := range map[string]raid.Layout{
		"raid5":  r5,
		"raid6":  raid.NewRAID6(disks, 5, perDisk, unit),
		"spread": raid.NewSpreadLayout(r5, r5.DataBlocks()/4),
	} {
		for _, op := range []disk.Op{disk.OpRead, disk.OpWrite} {
			t.Run(name+"/"+op.String(), func(t *testing.T) {
				eng := sim.NewEngine()
				arr := nullArray(eng, disks, perDisk)
				devs := make([]int, disks)
				for i := range devs {
					devs[i] = i
				}
				s := newSpan(arr, layout, devs, 0)
				long := int64(3 * len(s.inline) * unit)
				walk := func(block, count int64) {
					j := arr.newJoin(nil)
					if op == disk.OpRead {
						s.read(j, block, count)
					} else {
						s.write(j, block, count)
					}
					j.seal(eng.Now())
					eng.Run()
				}
				walk(0, long)
				if len(s.exts) <= len(s.inline) {
					t.Fatalf("a %d-block walk took %d extents: not past the %d inline ones", long, len(s.exts), len(s.inline))
				}
				for _, count := range []int64{unit, long} {
					block := int64(0)
					if allocs := testing.AllocsPerRun(100, func() {
						walk(block, count)
						block = (block + 7*unit + 3) % (layout.DataBlocks() - count)
					}); allocs != 0 {
						t.Errorf("a warm %d-block walk allocated %.1f times, want 0", count, allocs)
					}
				}
				checkDrained(t, arr)
			})
		}
	}
}
