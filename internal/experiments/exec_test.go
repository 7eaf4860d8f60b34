package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// chaosExecutor completes cells out of order from many goroutines and,
// for flagged indices, emits a second, conflicting result and an error
// for the same cell — what a faulty Executor could do to Collect. The
// duplicate carries a different Requests value so a last-result-wins
// bug is observable, not silently equivalent.
type chaosExecutor struct {
	seed      int64
	duplicate map[int]bool
	errAt     map[int]error
}

func (c chaosExecutor) Execute(cfgs []RunConfig, emit func(CellResult)) error {
	rng := rand.New(rand.NewSource(c.seed))
	order := rng.Perm(len(cfgs))
	var wg sync.WaitGroup
	for _, i := range order {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.errAt[i]; err != nil {
				emit(CellResult{Index: i, Err: err})
				return
			}
			first := fakeResult(cfgs[i], 1)
			emit(CellResult{Index: i, Result: first})
			if c.duplicate[i] {
				emit(CellResult{Index: i, Result: fakeResult(cfgs[i], 2)})
				emit(CellResult{Index: i, Err: errors.New("stale duplicate error")})
			}
		}()
	}
	wg.Wait()
	return nil
}

// fakeResult derives a result recognizably tied to (cfg, attempt).
func fakeResult(cfg RunConfig, attempt int64) RunResult {
	return RunResult{Cfg: cfg, Requests: cfg.PCBlocks*1000 + attempt}
}

// TestRunAllDeterministicOrderUnderChaos pins the scheduling
// contract: whatever order (and multiplicity) completions arrive in,
// RunAll returns results[i] == the FIRST completion of cfgs[i].
func TestRunAllDeterministicOrderUnderChaos(t *testing.T) {
	const n = 64
	cfgs := make([]RunConfig, n)
	for i := range cfgs {
		cfgs[i] = RunConfig{Trace: fmt.Sprintf("t%d", i), PCBlocks: int64(i)}
	}
	dup := map[int]bool{3: true, 17: true, 40: true, 63: true}
	var want []RunResult
	for _, cfg := range cfgs {
		want = append(want, fakeResult(cfg, 1))
	}
	for seed := int64(0); seed < 20; seed++ {
		SetExecutor(chaosExecutor{seed: seed, duplicate: dup})
		got, err := RunAll(cfgs)
		SetExecutor(nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d: results[%d] = %+v, want first-completion %+v",
						seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunAllLowestIndexedError pins that a multi-failure batch reports
// the lowest-indexed cell error regardless of completion order.
func TestRunAllLowestIndexedError(t *testing.T) {
	cfgs := make([]RunConfig, 16)
	for i := range cfgs {
		cfgs[i] = RunConfig{Trace: fmt.Sprintf("t%d", i)}
	}
	errs := map[int]error{11: errors.New("err 11"), 5: errors.New("err 5"), 14: errors.New("err 14")}
	for seed := int64(0); seed < 10; seed++ {
		SetExecutor(chaosExecutor{seed: seed, errAt: errs})
		_, err := RunAll(cfgs)
		SetExecutor(nil)
		if err == nil || err.Error() != "err 5" {
			t.Fatalf("seed %d: error = %v, want err 5 (lowest index)", seed, err)
		}
	}
}

// TestCollectDropsOutOfRangeIndexes guards the submitter against a
// malformed or hostile stream: indexes outside the batch are ignored.
func TestCollectDropsOutOfRangeIndexes(t *testing.T) {
	results, err := Collect(2, func(emit func(CellResult)) error {
		emit(CellResult{Index: -1, Result: RunResult{Requests: 9}})
		emit(CellResult{Index: 2, Result: RunResult{Requests: 9}})
		emit(CellResult{Index: 0, Result: RunResult{Requests: 1}})
		emit(CellResult{Index: 1, Result: RunResult{Requests: 2}})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Requests != 1 || results[1].Requests != 2 {
		t.Fatalf("results corrupted by out-of-range emits: %+v", results)
	}
}

// TestCollectTransportError pins that an executor transport failure
// surfaces when no cell-level error explains it, and that cell errors
// take precedence (they are more specific).
func TestCollectTransportError(t *testing.T) {
	transport := errors.New("connection refused")
	_, err := Collect(1, func(emit func(CellResult)) error { return transport })
	if !errors.Is(err, transport) {
		t.Fatalf("transport error lost: %v", err)
	}
	cellErr := errors.New("cell exploded")
	_, err = Collect(1, func(emit func(CellResult)) error {
		emit(CellResult{Index: 0, Err: cellErr})
		return transport
	})
	if !errors.Is(err, cellErr) {
		t.Fatalf("cell error should take precedence, got %v", err)
	}
}
