package raid

import "craid/internal/fastdiv"

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
// Like the layouts it wraps, a SpreadLayout keeps no walk state: any
// number of goroutines may walk one value at once.
type SpreadLayout struct {
	inner   Layout
	slots   int64 // granule slots in the inner space
	mult    int64 // modular-bijection multiplier over slots
	data    int64
	perSlot fastdiv.Divisor // by slots
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
	return &SpreadLayout{inner: inner, slots: slots, mult: mult, data: datasetBlocks, perSlot: fastdiv.New(slots)}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// spreadAddr maps a dataset block to the inner address space. g*mult
// stays below slots^2, far inside the divisor's exact range for any
// array this side of 2^31 granules.
func (s *SpreadLayout) spreadAddr(b int64) int64 {
	g, off := b/SpreadGranule, b%SpreadGranule
	_, slot := s.perSlot.DivMod(g * s.mult)
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
	checkBlock(block, 1, s.data)
	return s.inner.Locate(s.spreadAddr(block))
}

// ParityOf implements Layout.
func (s *SpreadLayout) ParityOf(block int64) (PBA, bool) {
	checkBlock(block, 1, s.data)
	return s.inner.ParityOf(s.spreadAddr(block))
}

// AppendExtents implements Layout: runs split at granule boundaries
// first (where physical placement jumps), then at the inner layout's
// stripe-unit boundaries. Each granule's extents are the inner layout's
// for its spread address, unchanged.
func (s *SpreadLayout) AppendExtents(dst []Extent, block, count int64) []Extent {
	checkBlock(block, count, s.data)
	for count > 0 {
		n := min(SpreadGranule-block%SpreadGranule, count)
		dst = s.inner.AppendExtents(dst, s.spreadAddr(block), n)
		block += n
		count -= n
	}
	return dst
}

// ForEachExtent implements Layout.
func (s *SpreadLayout) ForEachExtent(block, count int64, fn func(Extent)) {
	var buf [walkBuf]Extent
	for _, e := range s.AppendExtents(buf[:0], block, count) {
		fn(e)
	}
}
