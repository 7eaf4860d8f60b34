package experiments

import (
	"testing"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/sim"
	"craid/internal/trace"
	"craid/internal/workload"
)

// stackDistances is Mattson et al.'s one-pass LRU model (IBM Systems
// Journal 9(2), 1970): the stack distance of a reference is how many
// distinct blocks were referenced since the block's previous reference,
// itself included, and an LRU cache of C blocks holds a block exactly
// when its distance is at most C. A Fenwick tree over reference times
// holds a 1 at each block's latest reference, so a distance is one
// prefix-sum difference.
type stackDistances struct {
	tree []int32       // Fenwick tree over reference times 1..len-1
	last map[int64]int // block → time of its latest reference
	now  int
}

func newStackDistances(refs int64) *stackDistances {
	return &stackDistances{tree: make([]int32, refs+1), last: map[int64]int{}}
}

func (s *stackDistances) add(i int, v int32) {
	for ; i < len(s.tree); i += i & -i {
		s.tree[i] += v
	}
}

func (s *stackDistances) sum(i int) (n int64) {
	for ; i > 0; i -= i & -i {
		n += int64(s.tree[i])
	}
	return n
}

// distance is b's stack distance if it were referenced now; ok is false
// for a block never referenced (infinite distance).
func (s *stackDistances) distance(b int64) (d int64, ok bool) {
	t, ok := s.last[b]
	if !ok {
		return 0, false
	}
	return s.sum(s.now) - s.sum(t) + 1, true
}

// reference moves b to the top of the stack.
func (s *stackDistances) reference(b int64) {
	if t, ok := s.last[b]; ok {
		s.add(t, -1)
	}
	s.now++
	s.add(s.now, 1)
	s.last[b] = s.now
}

// lruOracle replays recs through the stack model of an LRU cache of
// capacity blocks, referencing blocks in the monitor's order:
//
//   - A read's resident blocks are referenced in block order as they are
//     classified (a hit promotes); its misses are referenced afterwards,
//     in block order, when the P_A read completes and copies them into
//     P_C. A promotion moves no block out of the top capacity entries
//     and none into them, so every block of the read is classified as
//     it stood before the request.
//   - A write references every block in block order: a hit promotes, a
//     miss is inserted at once, and an insertion's eviction may turn a
//     later block of the same write into a miss.
//
// Every miss is inserted, so the cache holds min(capacity, distinct
// blocks seen) blocks and a miss evicts exactly when that is capacity.
func lruOracle(recs []trace.Record, capacity int64) (readHits, writeHits, evictions int64) {
	var refs int64
	for _, r := range recs {
		refs += r.Count
	}
	s := newStackDistances(refs)
	hit := func(b int64) bool {
		d, ok := s.distance(b)
		return ok && d <= capacity
	}
	miss := func(b int64) {
		if int64(len(s.last)) >= capacity {
			evictions++
		}
		s.reference(b)
	}
	var misses []int64
	for _, r := range recs {
		if r.Op == disk.OpRead {
			misses = misses[:0]
			for b := r.Block; b < r.End(); b++ {
				if hit(b) {
					readHits++
					s.reference(b)
				} else {
					misses = append(misses, b)
				}
			}
			for _, b := range misses {
				miss(b)
			}
			continue
		}
		for b := r.Block; b < r.End(); b++ {
			if hit(b) {
				writeHits++
				s.reference(b)
			} else {
				miss(b)
			}
		}
	}
	return readHits, writeHits, evictions
}

// TestLRUMatchesStackDistanceOracle holds every preset's LRU cell of
// Tables 2 and 3 to the stack-distance model above, which shares no
// code with internal/cache, at 1×, 4× and 16× the cell's P_C: the cell's
// own clamped record stream, at its P_C data capacity, must give exactly
// the cell's read hits, write hits and evictions. There is no smaller
// size to check: every preset's Table 2/3 P_C is already the floor of
// one block per data disk (45 blocks on the 50-disk testbed), so a ¼×
// cell would be the 1× cell again.
func TestLRUMatchesStackDistanceOracle(t *testing.T) {
	table, err := tables2and3Configs(0.3) // TestTables2and3PolicyRanking's budget
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []RunConfig
	for _, cfg := range table {
		if cfg.Policy != "LRU" {
			continue
		}
		pc := cfg.PCBlocks
		for _, blocks := range []int64{pc, 4 * pc, 16 * pc} {
			cfg.PCBlocks = blocks
			cfgs = append(cfgs, cfg)
		}
	}
	if want := 3 * len(workload.PresetNames()); len(cfgs) != want {
		t.Fatalf("%d LRU cells, want three per preset (%d)", len(cfgs), want)
	}
	results, err := new(Runner).RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	capacities := map[string][]int64{}
	for _, res := range results {
		cfg := res.Cfg
		p, err := scaledPreset(cfg.Trace, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.New(p)
		vol, _, err := buildVolume(sim.NewEngine(), cfg, gen.DatasetBlocks())
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.ReadAll(trace.Clamp(gen, vol.DataBlocks()))
		if err != nil {
			t.Fatal(err)
		}
		capacity := vol.(*core.CRAID).CacheDataBlocks()
		capacities[cfg.Trace] = append(capacities[cfg.Trace], capacity)
		rh, wh, ev := lruOracle(recs, capacity)
		st := res.CRAID
		t.Logf("%s: %d records, P_C %d blocks: read hits %d, write hits %d, evictions %d",
			cfg.Trace, len(recs), capacity, rh, wh, ev)
		if int64(len(recs)) != res.Requests || st.ReadHits != rh || st.WriteHits != wh || st.Evictions != ev {
			t.Errorf("%s, P_C %d blocks: cell replayed %d records: read hits %d, write hits %d, evictions %d; "+
				"the stack model of its %d records says %d, %d, %d",
				cfg.Trace, capacity, res.Requests, st.ReadHits, st.WriteHits, st.Evictions, len(recs), rh, wh, ev)
		}
	}
	// The three sizes must be three caches, or the sweep checks one twice.
	for name, c := range capacities {
		if !(c[0] < c[1] && c[1] < c[2]) {
			t.Errorf("%s: P_C data capacities %v, want three increasing sizes", name, c)
		}
	}
}
