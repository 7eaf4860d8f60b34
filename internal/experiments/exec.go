package experiments

import (
	"sync"
	"sync/atomic"
)

// Cell-level scheduling. A run of the experiment matrix has two halves:
// *executing* cells, and *collecting* completions back into config
// order. An Executor produces CellResults in any order and Collect pins
// the deterministic contract — results[i] always corresponds to
// cfgs[i]. The tree has two executors: the in-process worker pool and
// Cache, which answers cells it has seen from the result store and
// hands the rest to the pool.

// CellResult is one completed cell, tagged with its index in the
// submitted batch. Exactly one of Result/Err is meaningful.
type CellResult struct {
	Index  int
	Result RunResult
	Err    error
}

// Executor runs a batch of cells, delivering each completion to emit.
// Completions may arrive from any goroutine, in any order; Collect
// serializes them. Execute returns after every cell it will ever
// deliver has been emitted; its error reports a failure of the
// executor itself (a result store that cannot be read), not
// individual cell errors.
type Executor interface {
	Execute(cfgs []RunConfig, emit func(CellResult)) error
}

// executor overrides RunAll's cell execution when non-nil.
// cmd/craidbench installs a Cache here for -cache.
var executor Executor

// SetExecutor routes every subsequent RunAll through e (nil restores
// the in-process worker pool). Call before RunAll, not concurrently
// with it.
func SetExecutor(e Executor) { executor = e }

// localPool is the in-process Executor: the bounded worker pool that
// has run the experiment matrix since PR 1. Once any cell fails,
// cells not yet started are skipped — a bad config in a large matrix
// should not cost the whole matrix's simulation time.
type localPool struct{}

func (localPool) Execute(cfgs []RunConfig, emit func(CellResult)) error {
	var failed atomic.Bool
	runCell := func(i int) {
		if failed.Load() {
			return
		}
		res, err := Run(cfgs[i])
		if err != nil {
			failed.Store(true)
		}
		emit(CellResult{Index: i, Result: res, Err: err})
	}
	workers := parallelism
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i := range cfgs {
			runCell(i)
		}
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runCell(i)
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return nil
}

// Cache is the Executor behind craidbench -cache: cells whose result is
// already in Store are emitted from it, the misses run on Inner, and
// each successful result is stored before it is emitted. Errors are
// never stored, so a failing cell fails again on the next run.
type Cache struct {
	Store *Store
	Inner Executor // runs the misses; nil = the in-process pool

	Hits, Computed atomic.Int64
}

// cacheable reports whether cfg's result is a function of its
// canonical encoding alone. A TraceAt handle has no canonical form; a
// TraceFile is keyed by its path, not its contents, so a replaced file
// would be a stale hit; and a hit for a MappingLog cell would skip
// writing the log the caller asked for.
func cacheable(cfg RunConfig) bool {
	return cfg.TraceAt == nil && cfg.TraceFile == "" && cfg.MappingLog == ""
}

func (c *Cache) Execute(cfgs []RunConfig, emit func(CellResult)) error {
	type missed struct {
		index int    // in cfgs
		hash  string // "" = not cacheable
	}
	var miss []RunConfig
	var meta []missed // parallels miss
	for i, cfg := range cfgs {
		hash := ""
		if cacheable(cfg) {
			var err error
			if hash, err = ConfigHash(cfg); err != nil {
				return err
			}
			res, ok, err := c.Store.Get(hash)
			if err != nil {
				return err
			}
			if ok {
				c.Hits.Add(1)
				emit(CellResult{Index: i, Result: res})
				continue
			}
		}
		miss = append(miss, cfg)
		meta = append(meta, missed{i, hash})
	}
	if len(miss) == 0 {
		return nil
	}
	inner := c.Inner
	if inner == nil {
		inner = localPool{}
	}
	return inner.Execute(miss, func(cr CellResult) {
		c.Computed.Add(1)
		m := meta[cr.Index]
		if m.hash != "" && cr.Err == nil {
			// A result that cannot be stored fails its cell: the run was
			// asked to fill the cache and must say that it did not.
			cr.Err = c.Store.Put(m.hash, cr.Result)
		}
		cr.Index = m.index
		emit(cr)
	})
}

// Collect runs one batch through run and assembles the completions
// into deterministic config order: the returned slice parallels the
// submitted configs regardless of finish order, and the error is the
// lowest-indexed cell error — or run's own error when no cell failed.
// Cells that were never emitted (skipped after a failure) are zero
// values. Neither executor in the tree emits an index twice or out of
// range, but a faulty one must not be able to overwrite another cell's
// slot: the first completion for an index wins and indexes outside the
// batch are dropped.
func Collect(n int, run func(emit func(CellResult)) error) ([]RunResult, error) {
	results := make([]RunResult, n)
	errs := make([]error, n)
	seen := make([]bool, n)
	var mu sync.Mutex
	emit := func(cr CellResult) {
		if cr.Index < 0 || cr.Index >= n {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[cr.Index] {
			return
		}
		seen[cr.Index] = true
		results[cr.Index] = cr.Result
		errs[cr.Index] = cr.Err
	}
	runErr := run(emit)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	if runErr != nil {
		return results, runErr
	}
	return results, nil
}

// RunAll executes every config, fanning the cells out over the
// installed Executor (default: the in-process bounded worker pool).
// Successful results are deterministic regardless of worker count or
// completion order: results[i] always corresponds to cfgs[i].
func RunAll(cfgs []RunConfig) ([]RunResult, error) {
	exec := executor
	if exec == nil {
		exec = localPool{}
	}
	return Collect(len(cfgs), func(emit func(CellResult)) error {
		return exec.Execute(cfgs, emit)
	})
}
