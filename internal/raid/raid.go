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

import "fmt"

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
// parity.
type Extent struct {
	Logical int64 // first logical block of the run
	Data    PBA
	Parity  PBA
	Q       PBA
	Count   int64
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
	// ForEachExtent decomposes the logical run [block, block+count)
	// into per-disk contiguous extents, invoking fn in logical order.
	ForEachExtent(block, count int64, fn func(Extent))
}

func checkBlock(l Layout, block, count int64) {
	if count < 1 || block < 0 || block+count > l.DataBlocks() {
		panic(fmt.Sprintf("raid: logical run [%d,+%d) out of range (capacity %d)",
			block, count, l.DataBlocks()))
	}
}

// forEachUnitRun splits [block, block+count) at stripe-unit boundaries;
// within one unit data is contiguous on a single disk. It is the
// reference implementation of ForEachExtent — one Locate/ParityOf
// chain per unit — kept for the property tests that pin the
// row-batched walk against it (it showed in whole-experiment profiles
// once the monitor left the critical path). Layout has no Q query, so
// it leaves Q unset and the tests check that leg against QParityOf.
func forEachUnitRun(l Layout, block, count int64, fn func(Extent)) {
	checkBlock(l, block, count)
	unit := l.StripeUnitBlocks()
	for count > 0 {
		inUnit := unit - block%unit
		if inUnit > count {
			inUnit = count
		}
		e := Extent{Logical: block, Data: l.Locate(block), Parity: PBA{Disk: -1}, Q: PBA{Disk: -1}, Count: inUnit}
		if p, ok := l.ParityOf(block); ok {
			e.Parity = p
		}
		fn(e)
		block += inUnit
		count -= inUnit
	}
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
type Striped struct {
	disks      int
	unit       int64
	rows       int64
	nParity    int // parity units per group row
	groups     []group
	groupLUT   []int32 // data slot within a row → owning group index
	dataPerRow int64   // data units per row across all groups
	capacity   int64
}

// newStriped builds the layout over parity groups of the given sizes.
func newStriped(sizes []int, nParity int, blocksPerDisk, unitBlocks int64) *Striped {
	r := &Striped{unit: unitBlocks, rows: blocksPerDisk / unitBlocks, nParity: nParity}
	for _, s := range sizes {
		g := group{firstDisk: r.disks, size: s, firstData: r.dataPerRow}
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

// DataUnitsPerRow reports how many data stripe units one row holds
// across all parity groups (the array's effective stripe width).
func (r *Striped) DataUnitsPerRow() int64 { return r.dataPerRow }

// locateUnit maps a data unit index to (row, group, slot) coordinates:
// one LUT load, no group scan.
func (r *Striped) locateUnit(unit int64) (row int64, g *group, slot int) {
	row = unit / r.dataPerRow
	idx := unit % r.dataPerRow
	g = &r.groups[r.groupLUT[idx]]
	return row, g, int(idx - g.firstData)
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
	checkBlock(r, block, 1)
	unit := block / r.unit
	off := block % r.unit
	row, grp, slot := r.locateUnit(unit)
	phase := int(row % int64(grp.size))
	d := grp.dataDisk[phase*grp.dataSlots+slot]
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
	checkBlock(r, block, 1)
	if nth > r.nParity {
		return PBA{Disk: -1}, false
	}
	row, grp, _ := r.locateUnit(block / r.unit)
	tab := grp.pDisk
	if nth == 2 {
		tab = grp.qDisk
	}
	return PBA{Disk: grp.firstDisk + tab[row%int64(grp.size)], Block: row*r.unit + block%r.unit}, true
}

// ForEachExtent implements Layout; see forEachRowRun.
func (r *Striped) ForEachExtent(block, count int64, fn func(Extent)) {
	checkBlock(r, block, count)
	r.forEachRowRun(block, count, 0, 0, fn)
}

// forEachRowRun emits exactly the extents forEachUnitRun emits (plus
// their Q leg), but batches the unit→(disk,block) mapping per stripe
// row: the row base and each group's rotation-table row — data disks, P
// and Q — are resolved once per group per row, and the data disk is a
// straight table load per slot — no per-unit locateUnit scan, no
// div/mod chain, no parity-skip branches. logOff/diskOff relocate the
// emitted extents, letting RAID5Plus walk a member set without a
// per-extent closure.
func (r *Striped) forEachRowRun(block, count, logOff int64, diskOff int, fn func(Extent)) {
	for count > 0 {
		u := block / r.unit
		off := block % r.unit
		row := u / r.dataPerRow
		idx := u % r.dataPerRow // data slot within the row
		base := row * r.unit
		gi := int(r.groupLUT[idx])
		for count > 0 && idx < r.dataPerRow {
			grp := &r.groups[gi]
			phase := int(row % int64(grp.size))
			first := diskOff + grp.firstDisk
			e := Extent{Parity: PBA{Disk: -1}, Q: PBA{Disk: -1}}
			if r.nParity >= 1 {
				e.Parity.Disk = first + grp.pDisk[phase]
			}
			if r.nParity == 2 {
				e.Q.Disk = first + grp.qDisk[phase]
			}
			dd := grp.dataDisk[phase*grp.dataSlots : (phase+1)*grp.dataSlots]
			for slot := int(idx - grp.firstData); slot < grp.dataSlots && count > 0; slot++ {
				e.Count = r.unit - off
				if e.Count > count {
					e.Count = count
				}
				e.Logical = logOff + block
				e.Data = PBA{Disk: first + dd[slot], Block: base + off}
				if r.nParity >= 1 {
					e.Parity.Block = e.Data.Block
				}
				if r.nParity == 2 {
					e.Q.Block = e.Data.Block
				}
				fn(e)
				block += e.Count
				count -= e.Count
				off = 0
				idx++
			}
			gi++
		}
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

// Sets returns the disk count of each member set.
func (r *RAID5Plus) Sets() []int {
	sizes := make([]int, len(r.sets))
	for i, s := range r.sets {
		sizes[i] = s.layout.Disks()
	}
	return sizes
}

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
	checkBlock(r, block, 1)
	s := r.locateSet(block)
	p := s.layout.Locate(block - s.firstBlock)
	p.Disk += s.firstDisk
	return p
}

// ParityOf implements Layout.
func (r *RAID5Plus) ParityOf(block int64) (PBA, bool) {
	checkBlock(r, block, 1)
	s := r.locateSet(block)
	p, ok := s.layout.ParityOf(block - s.firstBlock)
	p.Disk += s.firstDisk
	return p, ok
}

// ForEachExtent implements Layout: the run is split at member-set
// boundaries and each segment walked by the owning set's row-batched
// path, relocated by the set's disk and block offsets.
func (r *RAID5Plus) ForEachExtent(block, count int64, fn func(Extent)) {
	checkBlock(r, block, count)
	for count > 0 {
		s := r.locateSet(block)
		n := count
		if end := s.firstBlock + s.layout.DataBlocks(); end-block < n {
			n = end - block
		}
		s.layout.forEachRowRun(block-s.firstBlock, n, s.firstBlock, s.firstDisk, fn)
		block += n
		count -= n
	}
}
