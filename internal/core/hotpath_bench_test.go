package core

import (
	"math/rand"
	"testing"

	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// benchCRAID builds a larger shared-cache CRAID on null devices (P_C: 9
// data disks × cachePerDisk blocks) so the benchmark measures
// monitor/redirector CPU cost, not simulated disks.
func benchCRAID(eng *sim.Engine, cachePerDisk int64) *CRAID {
	arr := nullArray(eng, 10, 1<<30)
	disks := make([]int, 10)
	for i := range disks {
		disks[i] = i
	}
	paLayout := raid.NewRAID5(10, 10, 400_000, 32)
	return mustCRAID(arr, Config{
		Policy:       "LRU",
		CachePerDisk: cachePerDisk,
		ParityGroup:  10,
		StripeUnit:   32,
	}, true, disks, 0, paLayout, disks, cachePerDisk)
}

// benchSubmit replays reqs repeatedly through one warmed CRAID, so the
// numbers reflect the monitor's steady state (where churn should reuse
// freelisted nodes, not allocate).
func benchSubmit(b *testing.B, reqs []trace.Record) {
	var blocks int64
	for _, r := range reqs {
		blocks += r.Count
	}
	eng := sim.NewEngine()
	c := benchCRAID(eng, 8192)
	for _, r := range reqs { // warm: fill P_C and the mapping cache
		c.Submit(r, nil)
		eng.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			c.Submit(r, nil)
			eng.Run()
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}

// seqMix builds a 60/40 read/write stream of 256-block sequential
// requests over a working set larger than P_C.
func seqMix(n int) []trace.Record {
	rng := rand.New(rand.NewSource(42))
	reqs := make([]trace.Record, n)
	var cursor int64
	for i := range reqs {
		op := disk.OpRead
		if rng.Float64() < 0.4 {
			op = disk.OpWrite
		}
		reqs[i] = trace.Record{Op: op, Block: cursor % 3_000_000, Count: 256}
		cursor += 256
	}
	return reqs
}

// zipfMix builds small skewed random requests (hot-spot traffic).
func zipfMix(n int) []trace.Record {
	rng := rand.New(rand.NewSource(43))
	z := rand.NewZipf(rng, 1.2, 1, 2_999_999)
	reqs := make([]trace.Record, n)
	for i := range reqs {
		op := disk.OpRead
		if rng.Float64() < 0.4 {
			op = disk.OpWrite
		}
		reqs[i] = trace.Record{Op: op, Block: int64(z.Uint64()), Count: 8}
	}
	return reqs
}

// warmMix builds a 60/40 read/write stream of 256-block requests over a
// working set that fits entirely inside P_C, so after one warm pass every
// request is a pure hit — the monitor's steady state, where the per-access
// cost is one index probe plus policy metadata maintenance and the paths
// must not allocate at all.
func warmMix(n int) []trace.Record {
	rng := rand.New(rand.NewSource(44))
	reqs := make([]trace.Record, n)
	for i := range reqs {
		op := disk.OpRead
		if rng.Float64() < 0.4 {
			op = disk.OpWrite
		}
		reqs[i] = trace.Record{Op: op, Block: 256 * rng.Int63n(256), Count: 256}
	}
	return reqs
}

// BenchmarkSubmitSequential measures the monitor hot path on 256-block
// sequential requests — the case where extent-granularity operations
// collapse ~512 per-block tree/map traversals into a handful.
func BenchmarkSubmitSequential(b *testing.B) {
	benchSubmit(b, seqMix(400))
}

// BenchmarkSubmitWarm measures the all-hit steady state: the working set
// is cache-resident, so every record costs exactly the monitor's fixed
// overhead (classification + policy access + redirected I/O) and the
// whole Submit path must stay allocation-free (see TestSubmitWarmAllocFree).
func BenchmarkSubmitWarm(b *testing.B) {
	reqs := warmMix(400)
	benchSubmit(b, reqs)
	b.ReportMetric(float64(len(reqs)), "records/op")
}

// BenchmarkSubmitZipfian measures skewed small-request traffic.
func BenchmarkSubmitZipfian(b *testing.B) {
	benchSubmit(b, zipfMix(2000))
}

// BenchmarkSubmitMixed interleaves both patterns.
func BenchmarkSubmitMixed(b *testing.B) {
	s, z := seqMix(200), zipfMix(1000)
	mixed := make([]trace.Record, 0, len(s)+len(z))
	for i := 0; i < len(z); i++ {
		if i%5 == 0 && i/5 < len(s) {
			mixed = append(mixed, s[i/5])
		}
		mixed = append(mixed, z[i])
	}
	benchSubmit(b, mixed)
}
