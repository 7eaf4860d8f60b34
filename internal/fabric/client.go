package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"craid/internal/experiments"
)

// Client is the submitter side of the fabric: it implements
// experiments.Executor over a craidd service, so installing it with
// experiments.SetExecutor routes every RunAll matrix — each paper
// table, each figure sweep — through the work queue and its
// content-addressed cache. Results stream back as cells finish;
// experiments.Collect restores deterministic config order, so a remote
// table is byte-identical to an in-process one.
type Client struct {
	base string
	http *http.Client

	// Transient-failure policy: retries is how many times a failed
	// submit or stats call is reissued (connection refused, transport
	// resets, 5xx responses, and truncated result streams count as
	// transient; 4xx rejections do not), retryBase is the first backoff
	// step (doubled per attempt, with ±50% jitter), and retryWindow
	// bounds the whole retry sequence including the waits. Re-submitting
	// a whole batch is safe: experiments.Collect keeps the first result
	// per cell, so duplicate completions from an earlier, partially
	// streamed attempt are dropped.
	retries     int
	retryBase   time.Duration
	retryWindow time.Duration
	rngMu       sync.Mutex
	rng         *rand.Rand
}

// NewClient returns a submitter for the craidd at base
// (e.g. "http://host:8440"). The underlying HTTP client has no
// timeout: a job holds its connection open for the whole batch.
// Transient failures are retried 3 times with jittered exponential
// backoff from 200ms, bounded by a 2-minute window; SetRetryPolicy
// adjusts all three knobs.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"), http: &http.Client{},
		retries: 3, retryBase: 200 * time.Millisecond, retryWindow: 2 * time.Minute,
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// SetRetryPolicy overrides the transient-failure policy: retries
// reissues after the first attempt (0 disables), base is the first
// backoff step, window bounds the whole sequence. Call before the
// first request; the client must not be in use concurrently.
func (c *Client) SetRetryPolicy(retries int, base, window time.Duration) {
	c.retries, c.retryBase, c.retryWindow = retries, base, window
}

// transientError marks an error as retryable under the client's
// backoff policy.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// withRetry runs fn until it succeeds, fails permanently, or the
// policy is exhausted. Only errors wrapped as transientError are
// retried; the backoff between attempts is retryBase·2ⁱ scaled by a
// uniform ±50% jitter, and the whole sequence — waits included — is
// cut off at retryWindow.
func (c *Client) withRetry(op string, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.retryWindow)
	defer cancel()
	var err error
	for attempt := 0; ; attempt++ {
		err = fn(ctx)
		var te *transientError
		if err == nil || !errors.As(err, &te) || attempt >= c.retries {
			return err
		}
		step := c.retryBase << uint(attempt)
		c.rngMu.Lock()
		wait := step/2 + time.Duration(c.rng.Int63n(int64(step)))
		c.rngMu.Unlock()
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return fmt.Errorf("fabric: %s: retry window exhausted: %w", op, err)
		}
	}
}

// Execute implements experiments.Executor: canonical cells go to the
// service as one job; cells that cannot leave the process (a TraceAt
// handle — RunMSRVolumes' shared-file fan-out) fall back to local
// execution under the same parallelism bound, so a mixed batch still
// completes.
func (c *Client) Execute(cfgs []experiments.RunConfig, emit func(experiments.CellResult)) error {
	remoteIdx := make([]int, 0, len(cfgs))
	var localIdx []int
	for i, cfg := range cfgs {
		if cfg.TraceAt != nil {
			localIdx = append(localIdx, i)
		} else {
			remoteIdx = append(remoteIdx, i)
		}
	}

	var wg sync.WaitGroup
	if len(localIdx) > 0 {
		sem := make(chan struct{}, experiments.Parallelism())
		for _, i := range localIdx {
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := experiments.Run(cfgs[i])
				emit(experiments.CellResult{Index: i, Result: res, Err: err})
			}()
		}
	}

	var remoteErr error
	if len(remoteIdx) > 0 {
		cells := make([]experiments.RunConfig, len(remoteIdx))
		for j, i := range remoteIdx {
			cells[j] = cfgs[i]
		}
		remoteErr = c.submit(cells, func(line jobLine) {
			if line.Index < 0 || line.Index >= len(remoteIdx) {
				return
			}
			cr := experiments.CellResult{Index: remoteIdx[line.Index]}
			if line.Error != "" {
				cr.Err = errors.New(line.Error)
			} else if line.Result != nil {
				cr.Result = *line.Result
			} else {
				cr.Err = fmt.Errorf("fabric: empty result line for cell %d", line.Index)
			}
			emit(cr)
		})
	}
	wg.Wait()
	return remoteErr
}

// submit POSTs one job and decodes the ndjson completion stream,
// reissuing the whole batch on transient failures (deliver may then
// see duplicate lines from a partially streamed earlier attempt —
// experiments.Collect dedups by cell index, keeping the first).
func (c *Client) submit(cells []experiments.RunConfig, deliver func(jobLine)) error {
	body, err := json.Marshal(jobRequest{Cells: cells})
	if err != nil {
		return fmt.Errorf("fabric: encoding job: %w", err)
	}
	return c.withRetry("submit", func(ctx context.Context) error {
		return c.submitOnce(ctx, body, len(cells), deliver)
	})
}

func (c *Client) submitOnce(ctx context.Context, body []byte, cells int, deliver func(jobLine)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fabric: submitting job: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return &transientError{fmt.Errorf("fabric: submitting job: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("fabric: job rejected: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= http.StatusInternalServerError {
			return &transientError{err}
		}
		return err
	}
	dec := json.NewDecoder(resp.Body)
	seen := 0
	for {
		var line jobLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return &transientError{fmt.Errorf("fabric: result stream after %d/%d cells: %w", seen, cells, err)}
		}
		seen++
		deliver(line)
	}
	if seen < cells {
		return &transientError{fmt.Errorf("fabric: result stream ended after %d/%d cells", seen, cells)}
	}
	return nil
}

// Run executes one cell through the fabric — craidsim -remote.
func (c *Client) Run(cfg experiments.RunConfig) (experiments.RunResult, error) {
	results, err := experiments.Collect(1, func(emit func(experiments.CellResult)) error {
		return c.Execute([]experiments.RunConfig{cfg}, emit)
	})
	if err != nil {
		return experiments.RunResult{}, err
	}
	return results[0], nil
}

// Stats fetches the service's scheduler/store counters, retrying
// transient failures under the same backoff policy as submit.
func (c *Client) Stats() (StatsSnapshot, error) {
	var st StatsSnapshot
	err := c.withRetry("stats", func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return &transientError{err}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err := fmt.Errorf("fabric: stats: %s", resp.Status)
			if resp.StatusCode >= http.StatusInternalServerError {
				return &transientError{err}
			}
			return err
		}
		st = StatsSnapshot{}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			// A 200 whose body doesn't decode is a truncated or reset
			// response, not a service rejection.
			return &transientError{fmt.Errorf("fabric: stats: %w", err)}
		}
		return nil
	})
	return st, err
}

// Remote implements the worker API over HTTP: a worker process on
// another host points one of these at craidd and runs Worker.Loop
// against it (`craidd -join URL`).
type Remote struct {
	base string
	http *http.Client
}

// NewRemote returns the worker-side API client for the craidd at base.
func NewRemote(base string) *Remote {
	return &Remote{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

func (r *Remote) post(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	// Cap every control round trip; the lease long-poll adds its own
	// wait on top of this via the request body.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := r.http.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
			return hresp.StatusCode, err
		}
	}
	return hresp.StatusCode, nil
}

// Lease implements API.Lease over POST /v1/lease.
func (r *Remote) Lease(maxWait time.Duration) (*Lease, error) {
	var lr leaseResponse
	code, err := r.post("/v1/lease", leaseRequest{WaitMillis: maxWait.Milliseconds()}, &lr)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return &Lease{
			ID:     lr.LeaseID,
			Hash:   lr.Hash,
			Config: lr.Config,
			TTL:    time.Duration(lr.TTLMillis) * time.Millisecond,
		}, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("fabric: lease: HTTP %d", code)
	}
}

// Heartbeat implements API.Heartbeat over POST /v1/heartbeat.
func (r *Remote) Heartbeat(leaseID int64) (bool, error) {
	code, err := r.post("/v1/heartbeat", heartbeatRequest{LeaseID: leaseID}, nil)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
		return true, nil
	case http.StatusGone:
		return false, nil
	default:
		return false, fmt.Errorf("fabric: heartbeat: HTTP %d", code)
	}
}

// CompleteLease implements API.CompleteLease over POST /v1/complete.
func (r *Remote) CompleteLease(leaseID int64, hash string, res experiments.RunResult, errMsg string) error {
	req := completeRequest{LeaseID: leaseID, Hash: hash, Error: errMsg}
	if errMsg == "" {
		req.Result = &res
	}
	code, err := r.post("/v1/complete", req, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("fabric: complete: HTTP %d", code)
	}
	return nil
}
