// Package disk provides event-driven storage device models: a detailed
// hard-disk model (zoned geometry, seek curve, rotational position and
// a segmented on-disk cache), an idealized SSD, and an instant-service
// null device.
//
// The HDD model stands in for DiskSim's validated Seagate Cheetah 15K.5
// model used by the CRAID paper: it reproduces the same first-order
// latency components (seek, rotational delay, media transfer, cache
// hits) with parameters taken from the same drive's datasheet. The SSD
// model mirrors the idealized Microsoft Research DiskSim SSD model,
// including its documented lack of a read/write cache — a detail the
// paper's write-latency results depend on.
//
// All devices operate on fixed-size logical blocks (BlockSize bytes)
// and complete requests by invoking a callback on the shared simulation
// engine; they never block.
//
// A device keeps no fault state: a request arrives with its whole fate
// (Request.Reject, Err and LatencyX) decided by whoever submits it, and
// the model only times that fate and counts it. Every request completes
// through Done exactly once, whatever its fate.
package disk

import (
	"fmt"

	"craid/internal/sim"
)

// BlockSize is the logical block size, in bytes, used across the whole
// repository. The CRAID paper's mapping-cache memory accounting assumes
// 4 KiB blocks.
const BlockSize = 4096

// Op distinguishes reads from writes.
type Op uint8

// Request operations.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Request is a contiguous block-level I/O against a single device.
// Block and Count address logical blocks local to that device.
type Request struct {
	Op    Op
	Block int64 // first logical block on the device
	Count int64 // number of consecutive blocks, >= 1

	// Reject, Err and LatencyX are the request's fate. Reject says the
	// device is dead: the model rejects the request after the time its
	// controller takes to say so, whatever the rest of the fate. Err
	// completes it with an error, after the time an error takes on the
	// model, and a LatencyX above 1 stretches its service time. The zero
	// values are a healthy request.
	Reject   bool
	Err      bool
	LatencyX float64

	// Done, if non-nil, is invoked exactly once when the request
	// completes, with the completion time, whatever its fate.
	Done func(at sim.Time)
}

// Device is a block storage device attached to a simulation engine.
type Device interface {
	// Submit enqueues the request. Completion is reported through
	// r.Done. Submit panics if the request is out of range: device
	// models cannot repair addressing bugs in upper layers.
	//
	// Submit must not retain r or write to it: everything the model
	// needs later is copied out before Submit returns, so a caller may
	// reuse one Request value for every submission.
	Submit(r *Request)
	// CapacityBlocks is the number of addressable logical blocks.
	CapacityBlocks() int64
	// Name identifies the device in stats output.
	Name() string
	// Stats returns the device's accumulated counters. The returned
	// pointer stays valid and live for the device's lifetime.
	Stats() *Stats
}

// Stats holds per-device counters maintained by every model. A model
// counts a request where it decides the outcome — when it rejects it,
// absorbs it into a cache, or starts serving it — so the counters run
// ahead of the completions still in flight and equal them once the
// engine drains.
type Stats struct {
	Reads       int64 // read requests served
	Writes      int64 // write requests served
	BlocksRead  int64
	BlocksWrite int64
	BusyTime    sim.Time // total time the device was servicing requests
	CacheHits   int64    // requests served entirely from the on-device cache
	CacheMisses int64
	Errors      int64 // requests completed with an error verdict
	Rejected    int64 // requests rejected: submitted with Reject
}

// count records the outcome of one request of n blocks: an error, or one
// more request of its direction.
func (s *Stats) count(op Op, n int64, fail bool) {
	switch {
	case fail:
		s.Errors++
	case op == OpRead:
		s.Reads++
		s.BlocksRead += n
	default:
		s.Writes++
		s.BlocksWrite += n
	}
}

// complete schedules done, unless nil, delay from now. A completion
// always rides the event queue, even at delay 0, so a caller's callback
// never runs inside its own Submit.
func complete(eng *sim.Engine, delay sim.Time, done func(at sim.Time)) {
	if done != nil {
		eng.AfterTimed(delay, done)
	}
}

// checkRange panics unless r lies inside a device of capacity blocks.
// Each model passes its own capacity and name fields, and the message is
// built out of line, so the check inlines into Submit as three compares.
func checkRange(r *Request, capacity int64, name string) {
	if r.Count < 1 || r.Block < 0 || r.Block+r.Count > capacity {
		outOfRange(r, capacity, name)
	}
}

//go:noinline
func outOfRange(r *Request, capacity int64, name string) {
	panic(fmt.Sprintf("disk: request [%d,+%d) out of range on %s (capacity %d blocks)",
		r.Block, r.Count, name, capacity))
}

// NullDevice completes every request instantly. It realizes the CRAID
// paper's "simplified disk model that resolves each I/O instantly" used
// to evaluate cache-policy quality in isolation (§5.1).
type NullDevice struct {
	eng      *sim.Engine
	name     string
	capacity int64
	stats    Stats
}

// NewNullDevice returns an instant-service device with the given
// capacity in blocks.
func NewNullDevice(eng *sim.Engine, name string, capacityBlocks int64) *NullDevice {
	return &NullDevice{eng: eng, name: name, capacity: capacityBlocks}
}

// Submit implements Device; the request completes at the current
// simulated instant (via a zero-delay event, preserving callback
// ordering guarantees).
func (d *NullDevice) Submit(r *Request) {
	checkRange(r, d.capacity, d.name)
	if r.Reject {
		d.stats.Rejected++
	} else {
		// An instant device has no service time to scale, so a latency
		// multiplier is moot; the error verdict still applies.
		d.stats.count(r.Op, r.Count, r.Err)
	}
	complete(d.eng, 0, r.Done)
}

// CapacityBlocks implements Device.
func (d *NullDevice) CapacityBlocks() int64 { return d.capacity }

// Name implements Device.
func (d *NullDevice) Name() string { return d.name }

// Stats implements Device.
func (d *NullDevice) Stats() *Stats { return &d.stats }
