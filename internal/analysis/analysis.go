// Package analysis computes the workload characterizations of the
// paper's §2: summary statistics (Table 1), block access-frequency
// CDFs (Fig. 1, top row) and daily working-set overlap (Fig. 1, bottom
// row). These both motivate CRAID (skew + long-term locality) and
// validate that the synthetic workload generators reproduce the traced
// properties.
package analysis

import (
	"fmt"
	"io"
	"sort"

	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
)

// gb converts a block count to gigabytes.
func gb(blocks int64) float64 {
	return float64(blocks) * disk.BlockSize / 1e9
}

// Summary are the Table 1 statistics of one trace.
type Summary struct {
	ReadGB        float64 // total bytes read
	UniqueReadGB  float64 // distinct blocks read
	WriteGB       float64 // total bytes written
	UniqueWriteGB float64 // distinct blocks written
	RWRatio       float64 // ReadGB / WriteGB (0 when no writes)
	TotalGB       float64 // total accessed volume (reads + writes)
	Top20Share    float64 // fraction of accesses to the 20% most accessed blocks
	Requests      int64
}

// Analyzer accumulates per-block access statistics from a trace
// stream. Use one pass (Add per record, or Run) and then query.
type Analyzer struct {
	readCount               map[int64]int64 // accesses per block, reads
	writeCount              map[int64]int64 // accesses per block, writes
	readBlocks, writeBlocks int64
	requests                int64

	// Daily working sets: per day, the set of accessed blocks and
	// per-block access counts (for the top-20% variant).
	days []map[int64]int64
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		readCount:  make(map[int64]int64),
		writeCount: make(map[int64]int64),
	}
}

// Add incorporates one record, counting each touched block once per
// request (the paper's block access frequency is per-request). A record
// stamped before time zero belongs to no day and is an error.
func (a *Analyzer) Add(r trace.Record) error {
	if r.Time < 0 {
		return fmt.Errorf("analysis: record at negative time %d", int64(r.Time))
	}
	a.requests++
	day := int(r.Time / (24 * sim.Hour))
	for len(a.days) <= day {
		a.days = append(a.days, make(map[int64]int64))
	}
	ds := a.days[day]
	counts := a.readCount
	if r.Op == disk.OpWrite {
		counts = a.writeCount
		a.writeBlocks += r.Count
	} else {
		a.readBlocks += r.Count
	}
	for b := r.Block; b < r.End(); b++ {
		counts[b]++
		ds[b]++
	}
	return nil
}

// Run drains reader into the analyzer.
func (a *Analyzer) Run(r trace.Reader) error {
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := a.Add(rec); err != nil {
			return err
		}
	}
}

// Summary computes the Table 1 row.
func (a *Analyzer) Summary() Summary {
	s := Summary{
		ReadGB:        gb(a.readBlocks),
		UniqueReadGB:  gb(int64(len(a.readCount))),
		WriteGB:       gb(a.writeBlocks),
		UniqueWriteGB: gb(int64(len(a.writeCount))),
		TotalGB:       gb(a.readBlocks + a.writeBlocks),
		Requests:      a.requests,
	}
	if a.writeBlocks > 0 {
		s.RWRatio = float64(a.readBlocks) / float64(a.writeBlocks)
	}
	s.Top20Share = a.topShare(0.20)
	return s
}

// topShare returns the fraction of all block accesses landing on the
// frac most-accessed blocks.
func (a *Analyzer) topShare(frac float64) float64 {
	counts := make([]int64, 0, len(a.readCount)+len(a.writeCount))
	merged := make(map[int64]int64, len(a.readCount))
	for b, c := range a.readCount {
		merged[b] += c
	}
	for b, c := range a.writeCount {
		merged[b] += c
	}
	var total int64
	for _, c := range merged {
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	top := int(float64(len(counts)) * frac)
	if top < 1 {
		top = 1
	}
	var sum int64
	for _, c := range counts[:top] {
		sum += c
	}
	return float64(sum) / float64(total)
}

// FreqCDF returns, for each frequency threshold f in freqs, the
// fraction of blocks accessed at most f times (Fig. 1 top row). Op
// selects read or write frequencies.
func (a *Analyzer) FreqCDF(op disk.Op, freqs []int64) []float64 {
	counts := a.readCount
	if op == disk.OpWrite {
		counts = a.writeCount
	}
	if len(counts) == 0 {
		return make([]float64, len(freqs))
	}
	all := make([]int64, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make([]float64, len(freqs))
	for i, f := range freqs {
		idx := sort.Search(len(all), func(j int) bool { return all[j] > f })
		out[i] = float64(idx) / float64(len(all))
	}
	return out
}

// Days returns how many day buckets the trace covered.
func (a *Analyzer) Days() int { return len(a.days) }

// DailyOverlap returns, for each pair of consecutive days (d, d+1),
// the fraction of day-d blocks that are also accessed on day d+1
// (Fig. 1 bottom row). topFrac > 0 restricts each day to its topFrac
// most-accessed blocks first (the paper's "top 20%" series);
// topFrac <= 0 uses all accessed blocks.
func (a *Analyzer) DailyOverlap(topFrac float64) []float64 {
	sets := make([]map[int64]struct{}, len(a.days))
	for d, counts := range a.days {
		sets[d] = daySet(counts, topFrac)
	}
	var out []float64
	for d := 0; d+1 < len(sets); d++ {
		if len(sets[d]) == 0 {
			out = append(out, 0)
			continue
		}
		common := 0
		for b := range sets[d] {
			if _, ok := sets[d+1][b]; ok {
				common++
			}
		}
		out = append(out, float64(common)/float64(len(sets[d])))
	}
	return out
}

// daySet selects the blocks of one day, optionally only the topFrac
// most accessed.
func daySet(counts map[int64]int64, topFrac float64) map[int64]struct{} {
	out := make(map[int64]struct{}, len(counts))
	if topFrac <= 0 || topFrac >= 1 {
		for b := range counts {
			out[b] = struct{}{}
		}
		return out
	}
	type bc struct {
		block int64
		count int64
	}
	all := make([]bc, 0, len(counts))
	for b, c := range counts {
		all = append(all, bc{b, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].block < all[j].block // deterministic tie-break
	})
	n := int(float64(len(all)) * topFrac)
	if n < 1 {
		n = 1
	}
	for _, e := range all[:n] {
		out[e.block] = struct{}{}
	}
	return out
}
