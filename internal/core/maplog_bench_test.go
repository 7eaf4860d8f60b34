package core

import (
	"os"
	"path/filepath"
	"testing"

	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
)

// logBenchTrace is an eviction-churn write workload: 64-block write
// extents sweeping twice the cache capacity, so the steady state is
// continuous dirty insertion + eviction — every record appends dirty-
// log entries, the regime where the synchronous appendLog was the
// apply stage's next bottleneck.
func logBenchTrace(n int) []trace.Record {
	const span = 1_200_000 // ~2× pcData (9 × 65536 data blocks)
	recs := make([]trace.Record, n)
	var cursor int64
	for i := range recs {
		recs[i] = trace.Record{
			Time:  sim.Time(i) * sim.Microsecond,
			Op:    disk.OpWrite,
			Block: (cursor * 4099) % span,
			Count: 64,
		}
		cursor++
	}
	return recs
}

// BenchmarkMappingLogReplay measures the dirty-log write path under
// eviction churn: no log, the table writing straight to a file (one
// 17-byte Write syscall per transition), and SetMappingLog (one Write
// per apply step). The file lives in the bench temp dir, so the
// syscall cost is a real file's.
func BenchmarkMappingLogReplay(b *testing.B) {
	recs := logBenchTrace(20_000)
	run := func(b *testing.B, attach func(c *CRAID) func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := sim.NewEngine()
			c := benchCRAID(eng, 65536)
			done := attach(c)
			b.StartTimer()
			if _, err := Replay(eng, c, trace.NewSlice(recs)); err != nil {
				b.Fatal(err)
			}
			if err := done(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(recs)), "records/op")
	}
	logFile := func(b *testing.B) *os.File {
		f, err := os.Create(filepath.Join(b.TempDir(), "dirty.log"))
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("nolog", func(b *testing.B) {
		run(b, func(c *CRAID) func() error { return func() error { return nil } })
	})
	b.Run("file-unbuffered", func(b *testing.B) {
		run(b, func(c *CRAID) func() error {
			f := logFile(b)
			c.mon.table.SetLog(f)
			return f.Close
		})
	})
	b.Run("file", func(b *testing.B) {
		run(b, func(c *CRAID) func() error {
			f := logFile(b)
			c.SetMappingLog(f)
			return func() error {
				if _, err := c.CloseMappingLog(); err != nil {
					return err
				}
				return f.Close()
			}
		})
	})
}
