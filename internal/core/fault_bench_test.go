package core

import (
	"testing"

	"craid/internal/fault"
	"craid/internal/sim"
	"craid/internal/trace"
)

// BenchmarkReplayFaultFree is the healthy baseline for
// BenchmarkReplayDegraded: the identical workload and controller with
// no fault plan installed (the per-submission fault check is a single
// nil test).
func BenchmarkReplayFaultFree(b *testing.B) {
	recs := randomWorkload(5, 2000, 12000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c, _ := newTestCRAID(eng, 64)
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayDegraded measures the degraded-mode replay path: a
// random workload against a CRAID whose cache partition runs with one
// disk down from time zero, so every request touching the dead disk
// pays the reconstruction fan-out.
func BenchmarkReplayDegraded(b *testing.B) {
	recs := randomWorkload(5, 2000, 12000)
	plan, err := fault.ParsePlan("seed=9;fail:2@0s")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c, arr := newTestCRAID(eng, 64)
		rt, err := InstallFaults(arr, c, plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			b.Fatal(err)
		}
		if err := rt.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayDoubleFault times the compound-failure path: a second
// disk dies while the first one's rebuild is walking a RAID-6 cache
// partition, so the fabric re-plans every remaining batch around two
// erasures and client I/O pays double-degraded reconstruction
// throughout.
func BenchmarkReplayDoubleFault(b *testing.B) {
	recs := randomWorkload(5, 2000, 12000)
	plan, err := fault.ParsePlan("seed=9;fail:2@0s;rebuild:2@5ms,rate=64;fail:4@8ms")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		c, arr := newTestCRAID6(eng, 64)
		rt, err := InstallFaults(arr, c, plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
			b.Fatal(err)
		}
		if err := rt.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
