package fabric

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"craid/internal/experiments"
)

// API is the scheduling surface a worker drives. The in-process
// Server implements it directly (craidd's local workers); Remote
// implements it over HTTP (worker processes on other hosts). Both see
// identical lease/heartbeat/requeue semantics, so a cell neither knows
// nor cares where it runs.
type API interface {
	// Lease blocks up to maxWait for a cell; nil means poll again.
	Lease(maxWait time.Duration) (*Lease, error)
	// Heartbeat renews the lease; false means it expired and the cell
	// has been (or will be) re-issued.
	Heartbeat(leaseID int64) (bool, error)
	// CompleteLease delivers the finished cell (errMsg "" = success).
	CompleteLease(leaseID int64, hash string, res experiments.RunResult, errMsg string) error
}

// Worker pulls cells from an API and runs them to completion,
// heartbeating while a cell simulates so long cells outlive the lease
// TTL. One Worker runs one cell at a time; run several for
// parallelism.
type Worker struct {
	API API
	// Run executes one cell (default experiments.Run).
	Run func(experiments.RunConfig) (experiments.RunResult, error)
	// PollWait bounds one empty-queue lease poll (default 5s).
	PollWait time.Duration
	// Backoff delays re-polling after a transport error, so a worker
	// fleet survives a craidd restart without hammering it (default 1s).
	Backoff time.Duration
}

// Loop pulls and runs cells until ctx is cancelled. Transport errors
// back off and retry; cell errors — a panicking cell included — are
// reported to the server and the loop continues.
func (w *Worker) Loop(ctx context.Context) {
	run := w.Run
	if run == nil {
		run = experiments.Run
	}
	pollWait := w.PollWait
	if pollWait <= 0 {
		pollWait = 5 * time.Second
	}
	backoff := w.Backoff
	if backoff <= 0 {
		backoff = time.Second
	}
	for ctx.Err() == nil {
		l, err := w.API.Lease(pollWait)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			continue
		}
		if l == nil {
			continue
		}
		w.process(ctx, l, run)
	}
}

// process runs one leased cell, heartbeating at a third of the TTL
// until the simulation finishes. The completion races any requeue of
// an expired lease by design: the server keeps the first result and
// drops the rest.
func (w *Worker) process(ctx context.Context, l *Lease, run func(experiments.RunConfig) (experiments.RunResult, error)) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	interval := l.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				// A false/erroring heartbeat means the lease is gone;
				// keep simulating anyway — if our result still arrives
				// first it is accepted, otherwise it's dropped.
				w.API.Heartbeat(l.ID)
			}
		}
	}()
	res, errMsg := runCell(run, l.Config)
	stopHB()
	w.API.CompleteLease(l.ID, l.Hash, res, errMsg)
}

// panicStackLines is how much of the panicking goroutine's stack a cell
// error carries: the first seven lines are the goroutine header,
// debug.Stack, runCell's deferred function and panic itself, the rest
// are the seven innermost frames of the simulator.
const panicStackLines = 21

// runCell runs one cell and returns its result and error message (""
// = success). A panic becomes the cell's error: core, sim and mapcache
// panic on invariant violations by design, and left alone one such cell
// would kill the worker process — in craidd every queued job with it —
// and, requeued after its lease expired, the next worker too.
func runCell(run func(experiments.RunConfig) (experiments.RunResult, error), cfg experiments.RunConfig) (res experiments.RunResult, errMsg string) {
	defer func() {
		if p := recover(); p != nil {
			stack := bytes.SplitAfterN(debug.Stack(), []byte("\n"), panicStackLines+1)
			if len(stack) > panicStackLines {
				stack = stack[:panicStackLines]
			}
			res = experiments.RunResult{}
			errMsg = fmt.Sprintf("panic: %v\n%s", p, bytes.Join(stack, nil))
		}
	}()
	res, err := run(cfg)
	if err != nil {
		return res, err.Error()
	}
	return res, ""
}
