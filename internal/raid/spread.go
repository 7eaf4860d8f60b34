package raid

// SpreadGranule is the contiguity granule of SpreadLayout: logical
// runs inside one granule stay physically contiguous; distinct granules
// scatter across the underlying address space. 64 blocks (256 KiB)
// comfortably covers the largest request the workloads issue, so no
// single request is ever fragmented by spreading.
const SpreadGranule = 64

// SpreadLayout decorates a Layout so that a dataset smaller than the
// array spreads uniformly over the whole underlying address space
// instead of packing into its start. This reproduces how traced
// volumes map onto a big array (the paper maps datasets "uniformly so
// that all disks have the same access probability") and is what makes
// hot data "randomly spread over the entire disk" — the dispersion
// CRAID's cache partition subsequently undoes (§3, benefit iv).
//
// A SpreadLayout carries the state of the walk in progress, so — unlike
// the layouts it wraps — one value must not run ForEachExtent from two
// goroutines at once. Each simulation owns its layouts.
type SpreadLayout struct {
	inner Layout
	slots int64 // granule slots in the inner space
	mult  int64 // modular-bijection multiplier over slots
	data  int64

	// The walk in progress. Handing inner.ForEachExtent (an interface
	// call) a fresh closure would heap-allocate it on every walk — every
	// record of every run; instead relocFn is bound once to relocate,
	// which reads the caller's callback and the granule's address shift
	// here.
	walkFn    func(Extent)
	walkDelta int64 // dataset address minus inner address, this granule
	relocFn   func(Extent)
}

// NewSpreadLayout spreads datasetBlocks over inner's address space.
// Granules are placed by a modular bijection rather than a constant
// stride: a fixed stride aliases with the disks' track geometry and
// makes results resonate with incidental parameters (rotational phases
// repeat every stride), whereas the bijection decorrelates positions.
func NewSpreadLayout(inner Layout, datasetBlocks int64) *SpreadLayout {
	if datasetBlocks < 1 || datasetBlocks > inner.DataBlocks() {
		panic("raid: dataset does not fit the inner layout")
	}
	slots := inner.DataBlocks() / SpreadGranule
	if slots < 1 {
		slots = 1
	}
	mult := int64(float64(slots) * 0.6180339887)
	if mult < 1 {
		mult = 1
	}
	for gcd64(mult, slots) != 1 {
		mult++
	}
	s := &SpreadLayout{inner: inner, slots: slots, mult: mult, data: datasetBlocks}
	s.relocFn = s.relocate
	return s
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Factor returns the ratio of available granule slots to dataset
// granules (1 = dense).
func (s *SpreadLayout) Factor() int64 {
	granules := (s.data + SpreadGranule - 1) / SpreadGranule
	f := s.slots / granules
	if f < 1 {
		f = 1
	}
	return f
}

// spreadAddr maps a dataset block to the inner address space.
func (s *SpreadLayout) spreadAddr(b int64) int64 {
	g, off := b/SpreadGranule, b%SpreadGranule
	slot := g * s.mult % s.slots
	return slot*SpreadGranule + off
}

// Disks implements Layout.
func (s *SpreadLayout) Disks() int { return s.inner.Disks() }

// DataBlocks implements Layout: the dataset size, not the raw capacity.
func (s *SpreadLayout) DataBlocks() int64 { return s.data }

// BlocksPerDisk implements Layout (the full underlying footprint).
func (s *SpreadLayout) BlocksPerDisk() int64 { return s.inner.BlocksPerDisk() }

// StripeUnitBlocks implements Layout.
func (s *SpreadLayout) StripeUnitBlocks() int64 { return s.inner.StripeUnitBlocks() }

// Locate implements Layout.
func (s *SpreadLayout) Locate(block int64) PBA {
	checkBlock(s, block, 1)
	return s.inner.Locate(s.spreadAddr(block))
}

// ParityOf implements Layout.
func (s *SpreadLayout) ParityOf(block int64) (PBA, bool) {
	checkBlock(s, block, 1)
	return s.inner.ParityOf(s.spreadAddr(block))
}

// ForEachExtent implements Layout: runs split at granule boundaries
// first (where physical placement jumps), then at the inner layout's
// stripe-unit boundaries.
func (s *SpreadLayout) ForEachExtent(block, count int64, fn func(Extent)) {
	checkBlock(s, block, count)
	// Saved and restored, not just set: fn may itself walk this layout.
	prevFn, prevDelta := s.walkFn, s.walkDelta
	s.walkFn = fn
	for count > 0 {
		inGranule := SpreadGranule - block%SpreadGranule
		if inGranule > count {
			inGranule = count
		}
		addr := s.spreadAddr(block)
		s.walkDelta = block - addr
		s.inner.ForEachExtent(addr, inGranule, s.relocFn)
		block += inGranule
		count -= inGranule
	}
	s.walkFn, s.walkDelta = prevFn, prevDelta
}

// relocate hands one inner extent to the walk's callback, back in
// dataset addresses; its data, P and Q legs pass through untouched.
func (s *SpreadLayout) relocate(e Extent) {
	e.Logical += s.walkDelta
	s.walkFn(e)
}
