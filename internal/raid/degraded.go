package raid

import "fmt"

// Redundant is implemented by layouts whose stripe rows can
// reconstruct a lost unit from the surviving units of the same parity
// group's row. It reuses the rotation-table geometry: every disk of a
// group holds exactly one unit of each row, at the same device block
// range (row*unit+off), so the peers of any block are simply the other
// group members and a reconstruction read targets the same on-device
// range on each of them.
type Redundant interface {
	Layout
	// ParityUnits reports how many simultaneous device losses a parity
	// group survives (1 for RAID-5, 2 for RAID-6; 0 — RAID-0, bare or
	// spread — means the layout has no redundancy and callers must
	// treat every loss as data loss).
	ParityUnits() int
	// RowPeers appends to buf the other disks of the parity group row
	// containing block — the devices a degraded read of block must
	// consult. Each holds its unit of the row at the same device block
	// range as block's own unit.
	RowPeers(block int64, buf []int) []int
	// DiskPeers appends to buf the other members of the parity group
	// containing disk — the read set of a whole-disk rebuild.
	DiskPeers(disk int, buf []int) []int
}

// ParityUnits implements Redundant: 0 for RAID-0, which satisfies the
// interface assertion but survives no losses.
func (r *Striped) ParityUnits() int { return r.nParity }

// RowPeers implements Redundant: the group members other than the one
// holding the block's own data unit.
func (r *Striped) RowPeers(block int64, buf []int) []int {
	checkBlock(block, 1, r.capacity)
	unit, _ := r.perUnit.DivMod(block)
	row, grp, slot := r.locateUnit(unit)
	own := grp.dataDisk[grp.phase(row)*grp.dataSlots+slot]
	for d := 0; d < grp.size; d++ {
		if d != own {
			buf = append(buf, grp.firstDisk+d)
		}
	}
	return buf
}

// DiskPeers implements Redundant.
func (r *Striped) DiskPeers(disk int, buf []int) []int {
	for gi := range r.groups {
		g := &r.groups[gi]
		if disk >= g.firstDisk && disk < g.firstDisk+g.size {
			for d := 0; d < g.size; d++ {
				if g.firstDisk+d != disk {
					buf = append(buf, g.firstDisk+d)
				}
			}
			return buf
		}
	}
	panic(fmt.Sprintf("raid: disk %d outside every parity group", disk))
}

// ParityUnits implements Redundant (each member set is one RAID-5
// parity group).
func (r *RAID5Plus) ParityUnits() int { return 1 }

// RowPeers implements Redundant, delegating to the owning member set
// with its disk offset applied.
func (r *RAID5Plus) RowPeers(block int64, buf []int) []int {
	checkBlock(block, 1, r.capacity)
	s := r.locateSet(block)
	n := len(buf)
	buf = s.layout.RowPeers(block-s.firstBlock, buf)
	for i := n; i < len(buf); i++ {
		buf[i] += s.firstDisk
	}
	return buf
}

// DiskPeers implements Redundant.
func (r *RAID5Plus) DiskPeers(disk int, buf []int) []int {
	for i := len(r.sets) - 1; i >= 0; i-- {
		s := r.sets[i]
		if disk >= s.firstDisk {
			n := len(buf)
			buf = s.layout.DiskPeers(disk-s.firstDisk, buf)
			for k := n; k < len(buf); k++ {
				buf[k] += s.firstDisk
			}
			return buf
		}
	}
	panic(fmt.Sprintf("raid: disk %d out of range", disk))
}

// ParityUnits implements Redundant when the inner layout does; it
// reports 0 otherwise, which callers must read as "no reconstruction
// possible".
func (s *SpreadLayout) ParityUnits() int {
	if r, ok := s.inner.(Redundant); ok {
		return r.ParityUnits()
	}
	return 0
}

// RowPeers implements Redundant: block translates through the spread
// bijection, then the inner geometry answers. The returned device
// block ranges are inner-space rows, matching what Locate/ForEachExtent
// report for the same block.
func (s *SpreadLayout) RowPeers(block int64, buf []int) []int {
	r, ok := s.inner.(Redundant)
	if !ok {
		return buf
	}
	checkBlock(block, 1, s.data)
	return r.RowPeers(s.spreadAddr(block), buf)
}

// DiskPeers implements Redundant (disk indices are unaffected by
// spreading).
func (s *SpreadLayout) DiskPeers(disk int, buf []int) []int {
	if r, ok := s.inner.(Redundant); ok {
		return r.DiskPeers(disk, buf)
	}
	return buf
}

// RebuildWalker enumerates, stripe row by stripe row, the units a
// failed disk holds together with the peer disks a rebuild must read
// to reconstruct each unit. Every group disk holds one unit per row at
// the same device offsets, so the walk is a flat scan of the device's
// rows: unit r lives at device blocks [r*unit, (r+1)*unit) and its
// peers are the same group members for every row. The core's fault
// runtime turns each step into rate-limited read-peers/write-unit
// traffic on the simulation engine.
type RebuildWalker struct {
	peers []int
	unit  int64
	rows  int64
	row   int64
}

// NewRebuildWalker returns a walker over the units disk holds in l.
func NewRebuildWalker(l Redundant, disk int) *RebuildWalker {
	if disk < 0 || disk >= l.Disks() {
		panic(fmt.Sprintf("raid: rebuild disk %d out of range (%d disks)", disk, l.Disks()))
	}
	unit := l.StripeUnitBlocks()
	return &RebuildWalker{
		peers: l.DiskPeers(disk, nil),
		unit:  unit,
		rows:  l.BlocksPerDisk() / unit,
	}
}

// Rows reports how many stripe-row units the walk covers.
func (w *RebuildWalker) Rows() int64 { return w.rows }

// Next returns the device block range of the next unit to reconstruct
// and the peers to read it from; ok is false once the disk has been
// fully walked.
func (w *RebuildWalker) Next() (block, count int64, peers []int, ok bool) {
	if w.row >= w.rows {
		return 0, 0, nil, false
	}
	block = w.row * w.unit
	w.row++
	return block, w.unit, w.peers, true
}

// NextRun returns the device block range of the next up-to-maxRows
// stripe rows as ONE contiguous run, with the row count it covers.
// Consecutive rows of a rebuild are always device-contiguous — unit r
// occupies exactly [r*unit, (r+1)*unit) on every group disk — so a
// batch of rows is one read per peer and one write to the spare, and
// the group/rotation geometry is resolved once per batch instead of
// once per unit. Covers exactly the blocks repeated Next calls cover,
// in the same order (property-pinned in degraded_test.go). maxRows < 1
// is treated as 1.
func (w *RebuildWalker) NextRun(maxRows int64) (block, count int64, rows int64, peers []int, ok bool) {
	if w.row >= w.rows {
		return 0, 0, 0, nil, false
	}
	if maxRows < 1 {
		maxRows = 1
	}
	rows = w.rows - w.row
	if rows > maxRows {
		rows = maxRows
	}
	block = w.row * w.unit
	w.row += rows
	return block, rows * w.unit, rows, w.peers, true
}
