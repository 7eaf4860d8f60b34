package core

import (
	"fmt"
	"strings"
	"testing"

	"craid/internal/sim"
	"craid/internal/trace"
)

// buildNativeTrace renders n time-ordered native-format records mixing
// sequential runs with strided jumps, the shape of a real block trace.
func buildNativeTrace(n int) string {
	var sb strings.Builder
	sb.Grow(n * 24)
	block := int64(0)
	for i := 0; i < n; i++ {
		op := "R"
		if i%3 == 0 {
			op = "W"
		}
		if i%7 == 0 {
			block = int64(i*2654435761) % 3_000_000
		}
		fmt.Fprintf(&sb, "%d %s %d %d\n", i*50, op, block, 8)
		block += 8
	}
	return sb.String()
}

// BenchmarkReplayNative measures end-to-end trace replay — parsing
// included — through a CRAID on instant devices, so the cost under test
// is the replay pipeline itself (parser stalls between events vs
// read-ahead batching), not simulated mechanics.
func BenchmarkReplayNative(b *testing.B) {
	const records = 200_000
	data := buildNativeTrace(records)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		vol := benchCRAID(eng, 8192)
		st, err := Replay(eng, vol, trace.NewNativeReader(strings.NewReader(data)))
		if err != nil {
			b.Fatal(err)
		}
		if st.Records != records {
			b.Fatalf("replayed %d of %d records", st.Records, records)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
