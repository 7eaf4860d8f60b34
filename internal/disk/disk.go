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
package disk

import (
	"fmt"
	"math/bits"

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

	// Done, if non-nil, is invoked exactly once when the request
	// completes, with the completion time.
	Done func(at sim.Time)

	// Fail, if non-nil, is invoked instead of Done when the request
	// completes carrying an injected error or is rejected by a Failed
	// device. When Fail is nil the device falls back to Done, so
	// fault-unaware callers still observe exactly one completion.
	Fail func(at sim.Time)
}

// Injector decides the fate of individual requests on behalf of a
// fault plan. Verdict is consulted exactly once per submitted request,
// in submission order — which the single-threaded engine makes
// deterministic — so a stateless seeded hash over an advancing
// per-device counter replays bit-identically.
type Injector interface {
	Verdict(op Op, block, count int64) (fail bool, latencyX float64)
}

// Faultable is implemented by device models that support fault
// injection: a per-request Injector for transient errors and latency
// multipliers, and a Failed state (a dead disk) that rejects all I/O.
type Faultable interface {
	SetInjector(inj Injector)
	SetFailed(failed bool)
	Failed() bool
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

// BusyCounter is implemented by device models whose busy state changes
// only at their own events (never by the clock merely advancing), so an
// owner can keep a count of busy devices without polling them.
type BusyCounter interface {
	// CountBusyIn makes the device keep *n in step with its busy
	// state from now on: it adds 1 at once if it is busy, 1 whenever
	// it turns busy and -1 whenever it turns idle. A device counts in
	// one place at a time.
	CountBusyIn(n *int)
}

// Stats holds per-device counters maintained by every model.
type Stats struct {
	Reads       int64 // completed read requests
	Writes      int64 // completed write requests
	BlocksRead  int64
	BlocksWrite int64
	BusyTime    sim.Time // total time the device was servicing requests
	CacheHits   int64    // requests served entirely from the on-device cache
	CacheMisses int64
	Errors      int64 // requests completed with an injected error
	Rejected    int64 // requests rejected because the device was Failed
}

func checkRange(d Device, r *Request) {
	if r.Count < 1 || r.Block < 0 || r.Block+r.Count > d.CapacityBlocks() {
		panic(fmt.Sprintf("disk: request [%d,+%d) out of range on %s (capacity %d blocks)",
			r.Block, r.Count, d.Name(), d.CapacityBlocks()))
	}
}

// divisor divides by a value fixed at set-up — a zone's blocks per track
// and per cylinder, the revolution time, an SSD's channel count — without
// the hardware divide the models would otherwise pay several times per
// I/O: m is floor((2^64-1)/d), so the high word of n*m is n/d or one less,
// and one compare against the remainder settles which.
type divisor struct{ d, m uint64 }

func newDivisor(d int64) divisor {
	if d < 1 {
		panic("disk: divisor must be positive")
	}
	return divisor{d: uint64(d), m: ^uint64(0) / uint64(d)}
}

// divMod returns n/d and n%d, bit for bit. The estimate is exact to
// within one for 0 <= n < 2^63 (it falls short of n/d by less than
// n/2^64 < 1/2): block numbers (< 2^32 on the Cheetah) and instants
// (< 2^53 ns) are far inside that; a negative n takes the plain
// operators.
func (v divisor) divMod(n int64) (q, r int64) {
	if uint64(n) < v.d {
		// Inside one track, one cylinder, one round of the channels: the
		// common case, and no arithmetic at all. Never taken by n < 0.
		return 0, n
	}
	if n < 0 {
		return n / int64(v.d), n % int64(v.d)
	}
	hi, _ := bits.Mul64(uint64(n), v.m)
	rem := uint64(n) - hi*v.d
	if rem >= v.d {
		hi++
		rem -= v.d
	}
	return int64(hi), int64(rem)
}

// faultState is the injection state embedded by every device model.
// All hot-path checks on a fault-free device reduce to a nil test and
// a false bool.
type faultState struct {
	inj    Injector
	failed bool
}

// SetInjector implements Faultable.
func (f *faultState) SetInjector(inj Injector) { f.inj = inj }

// SetFailed implements Faultable. Requests already queued when the
// device fails complete normally (they were accepted); only subsequent
// submissions are rejected.
func (f *faultState) SetFailed(failed bool) { f.failed = failed }

// Failed implements Faultable.
func (f *faultState) Failed() bool { return f.failed }

// draw consults the injector for r's verdict: whether it completes with
// an error, and its service-time multiplier (<=1 = none).
func (f *faultState) draw(r *Request) (fail bool, latX float64) {
	if f.inj == nil {
		return false, 0
	}
	return f.inj.Verdict(r.Op, r.Block, r.Count)
}

// completeFault completes r with an error after delay: through Fail
// when set, falling back to Done so fault-unaware callers still get
// exactly one completion.
func completeFault(eng *sim.Engine, delay sim.Time, r *Request) {
	cb := r.Fail
	if cb == nil {
		cb = r.Done
	}
	if cb != nil {
		eng.AfterTimed(delay, cb)
	}
}

// NullDevice completes every request instantly. It realizes the CRAID
// paper's "simplified disk model that resolves each I/O instantly" used
// to evaluate cache-policy quality in isolation (§5.1).
type NullDevice struct {
	eng      *sim.Engine
	name     string
	capacity int64
	stats    Stats
	faultState
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
	checkRange(d, r)
	if d.failed {
		d.stats.Rejected++
		completeFault(d.eng, 0, r)
		return
	}
	if fail, _ := d.draw(r); fail {
		// An instant device has no service time to scale, so a latency
		// multiplier is moot; the error verdict still applies.
		d.stats.Errors++
		completeFault(d.eng, 0, r)
		return
	}
	if r.Op == OpRead {
		d.stats.Reads++
		d.stats.BlocksRead += r.Count
	} else {
		d.stats.Writes++
		d.stats.BlocksWrite += r.Count
	}
	if r.Done != nil {
		// Zero-delay timed event: preserves callback ordering without
		// allocating a wrapper closure per request.
		d.eng.AfterTimed(0, r.Done)
	}
}

// CapacityBlocks implements Device.
func (d *NullDevice) CapacityBlocks() int64 { return d.capacity }

// Name implements Device.
func (d *NullDevice) Name() string { return d.name }

// Stats implements Device.
func (d *NullDevice) Stats() *Stats { return &d.stats }
