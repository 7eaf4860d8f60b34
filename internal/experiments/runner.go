package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner runs batches of independent simulation cells: a bounded
// worker pool, in front of it a result store when one is set. Each
// cell owns a private sim.Engine, device models and workload
// generator, so cells are embarrassingly parallel. The zero value uses
// every core and computes everything.
type Runner struct {
	Parallel int    // concurrent cells; 0 = all cores, negative = 1
	Store    *Store // completed cells are read from and added to it; nil = none

	// Hits counts the cells answered from Store, Computed the cells
	// simulated.
	Hits, Computed atomic.Int64
}

// RunAll executes every config and returns the results in config
// order: results[i] always corresponds to cfgs[i], whatever the worker
// count or completion order. Once a cell fails, cells not yet started
// are skipped (their results stay zero) — a bad config in a large
// matrix should not cost the whole matrix's simulation time — and the
// error is the lowest-indexed cell's.
func (r *Runner) RunAll(cfgs []RunConfig) ([]RunResult, error) {
	results := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := r.Parallel
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, len(cfgs)))
	// Cells are claimed in index order and a claimed cell always runs,
	// so the cells that ran are a prefix of cfgs and the first error in
	// it does not depend on timing.
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = r.cell(cfgs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// cell answers cfg from the store when it can, and otherwise simulates
// it and stores a success. Errors are never stored, so a failing cell
// fails again on the next run.
func (r *Runner) cell(cfg RunConfig) (RunResult, error) {
	if r.Store == nil || !cacheable(cfg) {
		r.Computed.Add(1)
		return Run(cfg)
	}
	key, err := ConfigHash(cfg)
	if err != nil {
		return RunResult{}, err
	}
	res, ok, err := r.Store.Get(key)
	if err != nil {
		return RunResult{}, err
	}
	if ok {
		r.Hits.Add(1)
		return res, nil
	}
	r.Computed.Add(1)
	res, err = Run(cfg)
	if err == nil {
		// A result that cannot be stored fails its cell: the run was
		// asked to fill the cache and must say that it did not.
		err = r.Store.Put(key, res)
	}
	return res, err
}

// cacheable reports whether cfg's result is a function of what
// ConfigHash covers. A TraceAt handle is process-local state and is
// not encoded; a TraceFile is keyed by its path, not its contents, so
// a replaced file would be a stale hit; and a hit for a MappingLog
// cell would skip writing the log the caller asked for.
func cacheable(cfg RunConfig) bool {
	return cfg.TraceAt == nil && cfg.TraceFile == "" && cfg.MappingLog == ""
}

// ConfigHash returns the store key of cfg: the hex SHA-256 of its JSON
// encoding. encoding/json writes a struct's fields in declaration
// order, so inside one binary equal configs have equal keys and any
// field that differs changes the key; across binaries nothing is
// promised and nothing needs to be, because the store is namespaced by
// the binary (store.go). The engine is deterministic, so a RunResult
// stored under this key can stand in for re-running the cell.
func ConfigHash(cfg RunConfig) (string, error) {
	enc, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: config has no store key: %w", err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}
