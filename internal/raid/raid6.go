package raid

// NewRAID6 builds a RAID-6 layout — Striped with two parity units per
// group row, so every parity update touches P and Q (the paper's §6
// notes the cost of upgrading CRAID to RAID-6 "directly increases with
// the number of parity blocks"; core's write path realizes that cost
// model from the extents' Q leg). Groups need at least 4 disks (2 data
// + P + Q).
func NewRAID6(disks int, groupSize int, blocksPerDisk, unitBlocks int64) *Striped {
	if disks < 4 || unitBlocks < 1 || blocksPerDisk < unitBlocks {
		panic("raid: invalid RAID6 parameters")
	}
	if groupSize < 4 || groupSize > disks {
		groupSize = disks
	}
	sizes := splitGroups(disks, groupSize)
	for i := len(sizes) - 1; i > 0; i-- {
		// A RAID-6 group needs >= 4 disks; merge short trailing groups
		// leftward.
		if sizes[i] < 4 {
			sizes[i-1] += sizes[i]
			sizes = sizes[:i]
		}
	}
	if sizes[0] < 4 {
		panic("raid: RAID6 needs at least 4 disks per group")
	}
	return newStriped(sizes, 2, blocksPerDisk, unitBlocks)
}

// parityPositions returns the in-group slots of P and Q for a row:
// left-symmetric rotation with Q immediately after P (wrapping). It is
// the rotation law the per-phase group tables are built from, and the
// reference the LUT property tests pin against.
func parityPositions(row int64, size int) (p, q int) {
	p = int(int64(size-1) - row%int64(size))
	q = (p + 1) % size
	return p, q
}
