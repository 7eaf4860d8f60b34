package analysis

import (
	"math"
	"testing"

	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
)

func rec(day int, op disk.Op, block, count int64) trace.Record {
	return trace.Record{
		Time:  sim.Time(day)*24*sim.Hour + sim.Hour,
		Op:    op,
		Block: block,
		Count: count,
	}
}

func TestSummaryCounts(t *testing.T) {
	a := NewAnalyzer()
	a.Add(rec(0, disk.OpRead, 0, 256))    // 1 MiB read
	a.Add(rec(0, disk.OpRead, 0, 256))    // same blocks again
	a.Add(rec(0, disk.OpWrite, 256, 512)) // 2 MiB write
	s := a.Summary()
	if s.Requests != 3 {
		t.Errorf("Requests = %d, want 3", s.Requests)
	}
	wantRead := 2 * 256 * 4096.0 / 1e9
	if math.Abs(s.ReadGB-wantRead) > 1e-12 {
		t.Errorf("ReadGB = %v, want %v", s.ReadGB, wantRead)
	}
	wantUniqueRead := 256 * 4096.0 / 1e9
	if math.Abs(s.UniqueReadGB-wantUniqueRead) > 1e-12 {
		t.Errorf("UniqueReadGB = %v, want %v", s.UniqueReadGB, wantUniqueRead)
	}
	if math.Abs(s.RWRatio-1.0) > 1e-12 { // 2 MiB read vs 2 MiB written
		t.Errorf("RWRatio = %v, want 1.0", s.RWRatio)
	}
}

func TestTop20Share(t *testing.T) {
	a := NewAnalyzer()
	// 10 blocks; block 0 and 1 get 40 accesses each, the rest 1 each.
	for i := 0; i < 40; i++ {
		a.Add(rec(0, disk.OpRead, 0, 1))
		a.Add(rec(0, disk.OpRead, 1, 1))
	}
	for b := int64(2); b < 10; b++ {
		a.Add(rec(0, disk.OpRead, b, 1))
	}
	s := a.Summary()
	want := 80.0 / 88.0
	if math.Abs(s.Top20Share-want) > 1e-9 {
		t.Errorf("Top20Share = %v, want %v", s.Top20Share, want)
	}
}

func TestFreqCDF(t *testing.T) {
	a := NewAnalyzer()
	// Three blocks read 1, 5, and 100 times.
	for i := 0; i < 1; i++ {
		a.Add(rec(0, disk.OpRead, 0, 1))
	}
	for i := 0; i < 5; i++ {
		a.Add(rec(0, disk.OpRead, 1, 1))
	}
	for i := 0; i < 100; i++ {
		a.Add(rec(0, disk.OpRead, 2, 1))
	}
	cdf := a.FreqCDF(disk.OpRead, []int64{1, 5, 50, 100})
	want := []float64{1.0 / 3, 2.0 / 3, 2.0 / 3, 1.0}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-9 {
			t.Errorf("FreqCDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	// No writes recorded: write CDF must be all zeros, not panic.
	wcdf := a.FreqCDF(disk.OpWrite, []int64{1})
	if wcdf[0] != 0 {
		t.Errorf("write FreqCDF = %v on read-only trace", wcdf)
	}
}

func TestDailyOverlap(t *testing.T) {
	a := NewAnalyzer()
	// Day 0: blocks 0-9. Day 1: blocks 5-14 → overlap 5/10.
	for b := int64(0); b < 10; b++ {
		a.Add(rec(0, disk.OpRead, b, 1))
	}
	for b := int64(5); b < 15; b++ {
		a.Add(rec(1, disk.OpRead, b, 1))
	}
	ov := a.DailyOverlap(0)
	if len(ov) != 1 {
		t.Fatalf("overlap pairs = %d, want 1", len(ov))
	}
	if math.Abs(ov[0]-0.5) > 1e-9 {
		t.Errorf("overlap = %v, want 0.5", ov[0])
	}
	if a.Days() != 2 {
		t.Errorf("Days = %d, want 2", a.Days())
	}
}

func TestDailyOverlapTopFraction(t *testing.T) {
	a := NewAnalyzer()
	// Day 0: block 0 hot (10 accesses), blocks 1-9 cold.
	for i := 0; i < 10; i++ {
		a.Add(rec(0, disk.OpRead, 0, 1))
	}
	for b := int64(1); b < 10; b++ {
		a.Add(rec(0, disk.OpRead, b, 1))
	}
	// Day 1: block 0 hot again, plus fresh cold blocks 20-28.
	for i := 0; i < 10; i++ {
		a.Add(rec(1, disk.OpRead, 0, 1))
	}
	for b := int64(20); b < 29; b++ {
		a.Add(rec(1, disk.OpRead, b, 1))
	}
	all := a.DailyOverlap(0)[0]   // 1 of 10 blocks in common
	top := a.DailyOverlap(0.2)[0] // top-2 sets both contain block 0
	if math.Abs(all-0.1) > 1e-9 {
		t.Errorf("all-blocks overlap = %v, want 0.1", all)
	}
	if top < 0.5 {
		t.Errorf("top-20%% overlap = %v, want >= 0.5 (hot block persists)", top)
	}
}

func TestAddRejectsNegativeTime(t *testing.T) {
	a := NewAnalyzer()
	if err := a.Add(trace.Record{Time: -1, Op: disk.OpRead, Count: 1}); err == nil {
		t.Error("a record before time zero was filed under a day")
	}
	if s := a.Summary(); s.Requests != 0 {
		t.Errorf("the rejected record was counted: %+v", s)
	}
}

func TestEmptyAnalyzer(t *testing.T) {
	a := NewAnalyzer()
	s := a.Summary()
	if s.TotalGB != 0 || s.Top20Share != 0 || s.RWRatio != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if len(a.DailyOverlap(0)) != 0 {
		t.Error("empty analyzer produced overlap pairs")
	}
}
