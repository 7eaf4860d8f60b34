package core

import (
	"craid/internal/disk"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

// Volume is a block volume that serves trace records; all controllers
// implement it.
type Volume interface {
	// Submit serves one request; done (optional) fires at completion.
	// The error reports a request that cannot be served correctly —
	// data lost beyond the layout's redundancy (LostError), or a dying
	// mapping-log device — while its timing still completes through
	// done so the simulation's clocks stay comparable.
	Submit(rec trace.Record, done func(sim.Time)) error
	// DataBlocks is the logical capacity.
	DataBlocks() int64
	// ReadLatency and WriteLatency expose the response-time
	// distributions collected so far.
	ReadLatency() *metrics.LatencyHist
	WriteLatency() *metrics.LatencyHist
}

// latencies is the embedded response-time collection shared by
// controllers, plus the optional volume-level sequentiality tracker
// (Fig. 5's metric: how sequential the *redirected* logical access
// stream is — for CRAID that is P_C addresses, where the re-layout of
// scattered hot data is visible).
type latencies struct {
	read  *metrics.LatencyHist
	write *metrics.LatencyHist
	seq   *metrics.SeqTracker

	// degRead/degWrite additionally collect requests submitted while at
	// least one device was down (the degraded window); degActive is
	// toggled by the fault runtime.
	degRead   *metrics.LatencyHist
	degWrite  *metrics.LatencyHist
	degActive bool
}

func newLatencies() latencies {
	return latencies{
		read:     metrics.NewLatencyHist(),
		write:    metrics.NewLatencyHist(),
		degRead:  metrics.NewLatencyHist(),
		degWrite: metrics.NewLatencyHist(),
	}
}

// ReadLatency implements Volume.
func (l *latencies) ReadLatency() *metrics.LatencyHist { return l.read }

// WriteLatency implements Volume.
func (l *latencies) WriteLatency() *metrics.LatencyHist { return l.write }

// SetVolumeSeq attaches a tracker for the volume-level sequentiality
// of the (post-redirection) logical access stream.
func (l *latencies) SetVolumeSeq(st *metrics.SeqTracker) { l.seq = st }

// setDegraded brackets the degraded window: requests submitted while
// on are additionally recorded in the degraded histograms.
func (l *latencies) setDegraded(on bool) { l.degActive = on }

// DegradedReadLatency exposes the response times of reads submitted
// during degraded windows (empty on healthy runs).
func (l *latencies) DegradedReadLatency() *metrics.LatencyHist { return l.degRead }

// DegradedWriteLatency is the write-side counterpart.
func (l *latencies) DegradedWriteLatency() *metrics.LatencyHist { return l.degWrite }

// trackSeq records one logical access on stream (streams separate P_C
// from P_A addresses so redirection boundaries don't fake contiguity).
func (l *latencies) trackSeq(at sim.Time, stream int, block, count int64) {
	if l.seq != nil {
		l.seq.Add(at, stream, block, count)
	}
}

// request returns the join a client request's I/O attaches to: once
// sealed and complete it records the response time, then tells done.
func (l *latencies) request(a *Array, op disk.Op, start sim.Time, done func(sim.Time)) *join {
	j := a.newJoin(done)
	j.step, j.lat, j.op, j.start, j.deg = stepRecord, l, op, start, l.degActive
	return j
}

// add records one response time; deg says the request was submitted
// during a degraded window.
func (l *latencies) add(op disk.Op, deg bool, d sim.Time) {
	all, degraded := l.write, l.degWrite
	if op == disk.OpRead {
		all, degraded = l.read, l.degRead
	}
	all.Add(d)
	if deg {
		degraded.Add(d)
	}
}

// RAIDController is a plain RAID volume over a single layout — the
// paper's RAID-5 and RAID-5+ baselines (simulated in their ideal,
// fully-restriped state, as in §5).
type RAIDController struct {
	latencies
	span *span
}

// NewRAIDController builds a plain controller over the array devices
// listed in disks, with the partition starting at base on each device.
func NewRAIDController(arr *Array, layout raid.Layout, disks []int, base int64) *RAIDController {
	return &RAIDController{latencies: newLatencies(), span: newSpan(arr, layout, disks, base)}
}

// DataBlocks implements Volume.
func (c *RAIDController) DataBlocks() int64 { return c.span.layout.DataBlocks() }

// Submit implements Volume.
func (c *RAIDController) Submit(rec trace.Record, done func(sim.Time)) error {
	arr := c.span.arr
	now := arr.Eng.Now()
	lost0 := arr.lost()
	c.trackSeq(now, 0, rec.Block, rec.Count)
	j := c.request(arr, rec.Op, now, done)
	if rec.Op == disk.OpRead {
		c.span.read(j, rec.Block, rec.Count)
	} else {
		c.span.write(j, rec.Block, rec.Count)
	}
	j.seal(now)
	return arr.lostError(rec, lost0)
}
