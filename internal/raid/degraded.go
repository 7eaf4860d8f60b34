package raid

import "fmt"

// Redundant is implemented by layouts whose stripe rows can
// reconstruct a lost unit from the surviving units of the same parity
// group's row. It reuses the rotation-table geometry: every disk of a
// group holds exactly one unit of each row, at the same device block
// range (row*unit+off), so the peers of a lost unit are the other
// members of its disk's group — whichever block it holds — and a
// reconstruction read targets the same on-device range on each of them.
type Redundant interface {
	Layout
	// ParityUnits reports how many simultaneous device losses a parity
	// group survives (1 for RAID-5, 2 for RAID-6; 0 — RAID-0, bare or
	// spread — means the layout has no redundancy and callers must
	// treat every loss as data loss).
	ParityUnits() int
	// DiskPeers appends to buf the other members of the parity group
	// containing disk, in disk order: the devices a degraded read, a
	// reconstruct-write or a rebuild of any unit disk holds must
	// consult, each at that unit's own device block range.
	DiskPeers(disk int, buf []int) []int
}

// ParityUnits implements Redundant: 0 for RAID-0, which satisfies the
// interface assertion but survives no losses.
func (r *Striped) ParityUnits() int { return r.nParity }

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

// DiskPeers implements Redundant (disk indices are unaffected by
// spreading).
func (s *SpreadLayout) DiskPeers(disk int, buf []int) []int {
	if r, ok := s.inner.(Redundant); ok {
		return r.DiskPeers(disk, buf)
	}
	return buf
}
