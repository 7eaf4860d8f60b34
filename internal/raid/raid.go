// Package raid implements block-address layouts for RAID-0, RAID-5,
// RAID-6 and RAID-5+ (an aggregation of independently-striped RAID-5
// sets, the paper's model of an array that has been expanded several
// times).
//
// A Layout is pure address arithmetic: it maps a logical data block to
// the disk and on-disk block holding it, and to the location of the
// parity protecting it. Issuing the actual device I/O — including the
// read-modify-write cycles that parity updates require — is the job of
// the controllers in internal/core.
//
// RAID-0, RAID-5 and RAID-6 are one layout, Striped, differing only in
// how many parity units each parity group keeps per stripe row (0, 1 or
// 2 — paper §6: RAID-6 changes how many parity blocks an update touches,
// nothing else). It is left-symmetric with rotated parity and
// configurable parity groups: stripes span all disks, but each group of
// G disks computes its own parity (paper §5, Fig. 3a), bounding the
// failure domain while preserving full-array parallelism. An Extent
// names every leg of its own parity update — data, P and Q — so a
// controller never asks the layout a second question about it.
package raid

import (
	"fmt"
	"slices"

	"craid/internal/fastdiv"
)

// PBA is a physical block address: a device index within the array and
// a block offset local to that device (relative to the partition the
// layout occupies; controllers add the partition base).
type PBA struct {
	Disk  int
	Block int64
}

// Extent is a run of physically contiguous data blocks on one disk
// together with the parity runs protecting it: Parity.Disk < 0 for
// layouts without redundancy, Q.Disk < 0 for layouts without a second
// parity. A walk appends extents in logical order, so an extent starts
// at the walked run's first block plus the Counts before it.
type Extent struct {
	Data   PBA
	Parity PBA
	Q      PBA
	Count  int64
}

// Layout maps logical data blocks to physical locations.
type Layout interface {
	// Disks returns the number of devices the layout spans.
	Disks() int
	// DataBlocks returns the logical data capacity in blocks.
	DataBlocks() int64
	// BlocksPerDisk returns how many blocks the layout occupies on
	// each device.
	BlocksPerDisk() int64
	// StripeUnitBlocks returns the stripe unit size in blocks.
	StripeUnitBlocks() int64
	// Locate maps a logical block to its data location.
	Locate(block int64) PBA
	// ParityOf returns the parity location protecting the block; ok is
	// false when the layout has no redundancy.
	ParityOf(block int64) (pba PBA, ok bool)
	// AppendExtents decomposes the logical run [block, block+count)
	// into per-disk contiguous extents, appends them to dst in logical
	// order and returns the extended slice; dst[:len(dst)] is left as
	// it was. A caller that keeps the slice between walks walks without
	// allocating.
	AppendExtents(dst []Extent, block, count int64) []Extent
	// ForEachExtent calls fn with each extent AppendExtents appends, in
	// order: a thin loop over it through a buffer of walkBuf extents,
	// which a longer walk grows. A caller that walks often keeps a
	// slice and calls AppendExtents.
	ForEachExtent(block, count int64, fn func(Extent))
}

// walkBuf is the size of ForEachExtent's stack buffer. Most runs are one
// extent, and clearing a buffer four times this size costs as much
// again as walking it.
const walkBuf = 4

// checkBlock panics unless [block, block+count) is a run of a layout
// holding capacity data blocks. The message is built out of line, so
// the check inlines into every address path as three compares.
func checkBlock(block, count, capacity int64) {
	if count < 1 || block < 0 || block+count > capacity {
		outOfRange(block, count, capacity)
	}
}

//go:noinline
func outOfRange(block, count, capacity int64) {
	panic(fmt.Sprintf("raid: logical run [%d,+%d) out of range (capacity %d)", block, count, capacity))
}

// group is one parity group of a Striped layout, carrying the
// precomputed rotation tables that make every address computation
// branch-free: the left-symmetric parity rotation repeats with period
// size, so for each phase (row % size) the tables directly answer
// "which in-group disk holds P (and Q)" and "which in-group disk holds
// data slot s" — no linear group scan, no parity-slot-skip branches on
// any per-unit path.
type group struct {
	firstDisk int // index of the group's first disk within the array
	size      int // disks in the group
	perSize   fastdiv.Divisor
	firstData int64

	dataSlots int   // data units per row: size minus the parity count
	pDisk     []int // phase → in-group disk holding P (nil for RAID-0)
	qDisk     []int // phase → in-group disk holding Q (RAID-6 only)
	dataDisk  []int // phase*dataSlots + slot → in-group disk holding the slot
}

// buildRotation fills the group's per-phase tables for nParity parity
// slots per row, from the same rotation law (parityPos/parityPositions)
// the scalar reference paths use. Without parity nothing rotates: data
// slot s sits on disk s in every row.
func (g *group) buildRotation(nParity int) {
	g.dataSlots = g.size - nParity
	if nParity >= 1 {
		g.pDisk = make([]int, g.size)
	}
	if nParity == 2 {
		g.qDisk = make([]int, g.size)
	}
	g.dataDisk = make([]int, g.size*g.dataSlots)
	for phase := 0; phase < g.size; phase++ {
		pp, qp := -1, -1
		switch nParity {
		case 1:
			pp = parityPos(int64(phase), g.size)
			g.pDisk[phase] = pp
		case 2:
			pp, qp = parityPositions(int64(phase), g.size)
			g.pDisk[phase], g.qDisk[phase] = pp, qp
		}
		d := 0
		for slot := 0; slot < g.dataSlots; slot++ {
			for d == pp || d == qp {
				d++ // data slots occupy the non-parity disks in order
			}
			g.dataDisk[phase*g.dataSlots+slot] = d
			d++
		}
	}
}

// Striped is the layout behind RAID-0, RAID-5 and RAID-6: a stripe row
// spans all disks, and each parity group of ~groupSize disks holds
// nParity left-symmetrically rotated parity units per row. The three
// levels are the same arithmetic at nParity 0, 1 and 2; their
// constructors differ only in how they size the groups.
//
// Every division on its address paths — by the stripe unit, by the data
// units per row, by a group's size — is by a constant of the layout, so
// it goes through a fastdiv.Divisor.
type Striped struct {
	disks      int
	unit       int64
	rows       int64
	nParity    int // parity units per group row
	groups     []group
	groupLUT   []int32 // data slot within a row → owning group index
	dataPerRow int64   // data units per row across all groups
	capacity   int64

	perUnit, perRow fastdiv.Divisor // by unit, by dataPerRow
}

// newStriped builds the layout over parity groups of the given sizes.
func newStriped(sizes []int, nParity int, blocksPerDisk, unitBlocks int64) *Striped {
	r := &Striped{unit: unitBlocks, rows: blocksPerDisk / unitBlocks, nParity: nParity}
	for _, s := range sizes {
		g := group{firstDisk: r.disks, size: s, perSize: fastdiv.New(int64(s)), firstData: r.dataPerRow}
		g.buildRotation(nParity)
		r.groups = append(r.groups, g)
		r.dataPerRow += int64(g.dataSlots)
		r.disks += s
	}
	// Every data slot of a row → its owning group, so locating a unit is
	// one table load instead of a linear group scan.
	r.groupLUT = make([]int32, r.dataPerRow)
	for gi := range r.groups {
		g := &r.groups[gi]
		for s := 0; s < g.dataSlots; s++ {
			r.groupLUT[g.firstData+int64(s)] = int32(gi)
		}
	}
	r.capacity = r.rows * r.dataPerRow * unitBlocks
	r.perUnit, r.perRow = fastdiv.New(unitBlocks), fastdiv.New(r.dataPerRow)
	return r
}

// NewRAID0 builds a RAID-0 layout over disks devices, each contributing
// blocksPerDisk blocks, striped in units of unitBlocks: one group of
// all disks with no parity, so unit u sits on disk u % disks.
func NewRAID0(disks int, blocksPerDisk, unitBlocks int64) *Striped {
	if disks < 1 || unitBlocks < 1 || blocksPerDisk < unitBlocks {
		panic("raid: invalid RAID0 parameters")
	}
	return newStriped([]int{disks}, 0, blocksPerDisk, unitBlocks)
}

// NewRAID5 builds a RAID-5 layout. groupSize disks per parity group
// (the trailing group may be smaller, but never smaller than 2).
func NewRAID5(disks int, groupSize int, blocksPerDisk, unitBlocks int64) *Striped {
	if disks < 2 || unitBlocks < 1 || blocksPerDisk < unitBlocks {
		panic("raid: invalid RAID5 parameters")
	}
	if groupSize < 2 || groupSize > disks {
		groupSize = disks
	}
	return newStriped(splitGroups(disks, groupSize), 1, blocksPerDisk, unitBlocks)
}

// splitGroups partitions n disks into groups of size g, fixing up a
// trailing remainder of 1 (a group cannot be a lone parity disk).
func splitGroups(n, g int) []int {
	var sizes []int
	for rem := n; rem > 0; {
		s := g
		if s > rem {
			s = rem
		}
		sizes = append(sizes, s)
		rem -= s
	}
	if last := len(sizes) - 1; sizes[last] == 1 {
		// Borrow one disk from the previous group: ..., g, 1 → g-1, 2.
		sizes[last-1]--
		sizes[last]++
	}
	return sizes
}

// Disks implements Layout.
func (r *Striped) Disks() int { return r.disks }

// DataBlocks implements Layout.
func (r *Striped) DataBlocks() int64 { return r.capacity }

// BlocksPerDisk implements Layout.
func (r *Striped) BlocksPerDisk() int64 { return r.rows * r.unit }

// StripeUnitBlocks implements Layout.
func (r *Striped) StripeUnitBlocks() int64 { return r.unit }

// locateUnit maps a data unit index to (row, group, slot) coordinates:
// one LUT load, no group scan.
func (r *Striped) locateUnit(unit int64) (row int64, g *group, slot int) {
	row, idx := r.perRow.DivMod(unit)
	g = &r.groups[r.groupLUT[idx]]
	return row, g, int(idx - g.firstData)
}

// phase returns the row's position in g's rotation period (row % size),
// the index into its per-phase tables.
func (g *group) phase(row int64) int {
	_, ph := g.perSize.DivMod(row)
	return int(ph)
}

// parityPos returns the slot (disk offset within the group) holding
// parity in the given row: left-symmetric rotation. It is the rotation
// law the per-phase group tables are built from, and the reference the
// LUT property tests pin against.
func parityPos(row int64, size int) int {
	return int(int64(size-1) - row%int64(size))
}

// Locate implements Layout: branch-free — the group comes from the
// row-slot LUT and the data disk from the group's per-phase rotation
// table, with no parity-skip branches.
func (r *Striped) Locate(block int64) PBA {
	checkBlock(block, 1, r.capacity)
	unit, off := r.perUnit.DivMod(block)
	row, grp, slot := r.locateUnit(unit)
	d := grp.dataDisk[grp.phase(row)*grp.dataSlots+slot]
	return PBA{Disk: grp.firstDisk + d, Block: row*r.unit + off}
}

// ParityOf implements Layout (the P parity).
func (r *Striped) ParityOf(block int64) (PBA, bool) { return r.parityOf(block, 1) }

// QParityOf returns the location of the Q (second) parity protecting
// the block; ok is false below RAID-6.
func (r *Striped) QParityOf(block int64) (PBA, bool) { return r.parityOf(block, 2) }

// parityOf locates the block's nth parity unit (1 = P, 2 = Q): same row
// and offset as the data, on the disk the group's rotation table names.
func (r *Striped) parityOf(block int64, nth int) (PBA, bool) {
	checkBlock(block, 1, r.capacity)
	if nth > r.nParity {
		return PBA{Disk: -1}, false
	}
	unit, off := r.perUnit.DivMod(block)
	row, grp, _ := r.locateUnit(unit)
	tab := grp.pDisk
	if nth == 2 {
		tab = grp.qDisk
	}
	return PBA{Disk: grp.firstDisk + tab[grp.phase(row)], Block: row*r.unit + off}, true
}

// AppendExtents implements Layout, a stripe row at a time. The run
// takes one extent per stripe unit it touches, so dst is sized once and
// the extents are written in place. The first unit is divided out into
// (row, data slot, offset), and from there the walk steps: the row base
// and each group's rotation-table row (data disks, P and Q) are resolved
// once per group per row, and each data disk is a straight table load
// per slot, with no per-unit locateUnit and no parity-skip branches.
func (r *Striped) AppendExtents(dst []Extent, block, count int64) []Extent {
	checkBlock(block, count, r.capacity)
	u, off := r.perUnit.DivMod(block)
	last, _ := r.perUnit.DivMod(block + count - 1)
	n := len(dst)
	dst = slices.Grow(dst, int(last-u+1))[:n+int(last-u+1)]
	out := dst[n:]
	row, idx := r.perRow.DivMod(u) // idx: data slot within the row
	for i, gi := 0, int(r.groupLUT[idx]); ; gi, idx = 0, 0 {
		base := row * r.unit
		for ; gi < len(r.groups); gi++ {
			grp := &r.groups[gi]
			phase := grp.phase(row)
			first := grp.firstDisk
			p, q := PBA{Disk: -1}, PBA{Disk: -1}
			if r.nParity >= 1 {
				p.Disk = first + grp.pDisk[phase]
			}
			if r.nParity == 2 {
				q.Disk = first + grp.qDisk[phase]
			}
			dd := grp.dataDisk[phase*grp.dataSlots : (phase+1)*grp.dataSlots]
			for slot := int(idx - grp.firstData); slot < len(dd); slot++ {
				e := &out[i]
				i++
				e.Count = min(r.unit-off, count)
				e.Data = PBA{Disk: first + dd[slot], Block: base + off}
				e.Parity, e.Q = p, q
				if r.nParity >= 1 {
					e.Parity.Block = e.Data.Block
				}
				if r.nParity == 2 {
					e.Q.Block = e.Data.Block
				}
				if count -= e.Count; count == 0 {
					return dst
				}
				off = 0
			}
			idx = grp.firstData + int64(grp.dataSlots)
		}
		row++
	}
}

// ForEachExtent implements Layout.
func (r *Striped) ForEachExtent(block, count int64, fn func(Extent)) {
	var buf [walkBuf]Extent
	for _, e := range r.AppendExtents(buf[:0], block, count) {
		fn(e)
	}
}

// set is one member array of a RAID-5+ aggregation.
type set struct {
	firstDisk  int
	layout     *Striped
	firstBlock int64 // first logical block owned by this set
}

// RAID5Plus aggregates independent RAID-5 sets, modelling an array that
// has been expanded several times by adding whole new RAID-5 volumes
// (paper §5, Fig. 3b). Logical capacity is the concatenation of the
// sets, exactly as the figure shows (set 0 holds the first blocks, the
// next set continues after it): a volume grown by appending arrays.
// This segmentation is what limits RAID-5+ — locality concentrates in
// one set's few disks, and per-disk data shares differ between sets.
type RAID5Plus struct {
	disks    int
	unit     int64
	sets     []set
	capacity int64
}

// NewRAID5Plus builds an aggregation of RAID-5 sets with the given disk
// counts (each set is one parity group). The paper's 50-disk testbed
// uses sizes 10,3,4,5,7,9,12 — a 10-disk original grown by +30% steps.
func NewRAID5Plus(setSizes []int, blocksPerDisk, unitBlocks int64) *RAID5Plus {
	if len(setSizes) == 0 {
		panic("raid: RAID5Plus needs at least one set")
	}
	r := &RAID5Plus{unit: unitBlocks}
	first := 0
	for _, n := range setSizes {
		if n < 2 {
			panic("raid: RAID5Plus set smaller than 2 disks")
		}
		l := NewRAID5(n, n, blocksPerDisk, unitBlocks)
		r.sets = append(r.sets, set{firstDisk: first, layout: l, firstBlock: r.capacity})
		r.capacity += l.DataBlocks()
		first += n
	}
	r.disks = first
	return r
}

// PaperExpansionSizes returns the paper's RAID-5+ growth schedule: a
// 10-disk array expanded by ~30% per step until 50 disks.
func PaperExpansionSizes() []int { return []int{10, 3, 4, 5, 7, 9, 12} }

// Disks implements Layout.
func (r *RAID5Plus) Disks() int { return r.disks }

// DataBlocks implements Layout.
func (r *RAID5Plus) DataBlocks() int64 { return r.capacity }

// BlocksPerDisk implements Layout.
func (r *RAID5Plus) BlocksPerDisk() int64 { return r.sets[0].layout.BlocksPerDisk() }

// StripeUnitBlocks implements Layout.
func (r *RAID5Plus) StripeUnitBlocks() int64 { return r.unit }

// locateSet finds the set owning a logical block.
func (r *RAID5Plus) locateSet(block int64) set {
	for i := len(r.sets) - 1; i >= 0; i-- {
		if block >= r.sets[i].firstBlock {
			return r.sets[i]
		}
	}
	panic("raid: block out of range") // unreachable: caller range-checked
}

// Locate implements Layout.
func (r *RAID5Plus) Locate(block int64) PBA {
	checkBlock(block, 1, r.capacity)
	s := r.locateSet(block)
	p := s.layout.Locate(block - s.firstBlock)
	p.Disk += s.firstDisk
	return p
}

// ParityOf implements Layout.
func (r *RAID5Plus) ParityOf(block int64) (PBA, bool) {
	checkBlock(block, 1, r.capacity)
	s := r.locateSet(block)
	p, ok := s.layout.ParityOf(block - s.firstBlock)
	p.Disk += s.firstDisk
	return p, ok
}

// AppendExtents implements Layout: the run is split at member-set
// boundaries, each segment walked by the owning set and its extents
// relocated in place by the set's disk offset.
func (r *RAID5Plus) AppendExtents(dst []Extent, block, count int64) []Extent {
	checkBlock(block, count, r.capacity)
	for count > 0 {
		s := r.locateSet(block)
		n := min(count, s.firstBlock+s.layout.DataBlocks()-block)
		from := len(dst)
		dst = s.layout.AppendExtents(dst, block-s.firstBlock, n)
		for i := range dst[from:] {
			e := &dst[from+i]
			e.Data.Disk += s.firstDisk
			e.Parity.Disk += s.firstDisk // every set is RAID-5: P and no Q
		}
		block += n
		count -= n
	}
	return dst
}

// ForEachExtent implements Layout.
func (r *RAID5Plus) ForEachExtent(block, count int64, fn func(Extent)) {
	var buf [walkBuf]Extent
	for _, e := range r.AppendExtents(buf[:0], block, count) {
		fn(e)
	}
}
