package raid

import (
	"math/rand"
	"testing"
)

// Reference implementations of the pre-LUT geometry math: the linear
// group scan and the rotate-and-skip parity branches, exactly as
// Locate/ParityOf/QParityOf computed addresses before the per-phase
// rotation tables. The property tests below pin the branch-free table
// paths to these, block for block, across every test geometry.

// refGroupOf finds a data slot's group by linear scan.
func refGroupOf(groups []group, idx int64, parities int) *group {
	for i := range groups {
		g := &groups[i]
		if idx < g.firstData+int64(g.size-parities) {
			return g
		}
	}
	panic("raid: unit index out of range")
}

// stripedLayouts picks rowBatchLayouts' RAID-0/5/6 members, each with
// the parity count its name promises (checked against the layout's own
// answer, so a constructor passing the wrong count fails here).
func stripedLayouts(t *testing.T) map[string]*Striped {
	t.Helper()
	out := make(map[string]*Striped)
	for name, l := range rowBatchLayouts() {
		r, ok := l.(*Striped)
		if !ok {
			continue
		}
		if want := paritiesOf(name); r.ParityUnits() != want {
			t.Fatalf("%s: ParityUnits() = %d, want %d", name, r.ParityUnits(), want)
		}
		out[name] = r
	}
	return out
}

// paritiesOf reads the parity count off a rowBatchLayouts name.
func paritiesOf(name string) int {
	return map[string]int{"raid0": 0, "raid5": 1, "raid6": 2}[name[:5]]
}

// refLocate is the original Locate of each level, selected by parity
// count: RAID-0's round-robin, RAID-5's scan-rotate-and-skip, RAID-6's
// skip past both parity slots in ascending order.
func refLocate(r *Striped, block int64, parities int) PBA {
	checkBlock(block, 1, r.capacity)
	unit := block / r.unit
	off := block % r.unit
	if parities == 0 {
		return PBA{Disk: int(unit % int64(r.disks)), Block: unit/int64(r.disks)*r.unit + off}
	}
	row := unit / r.dataPerRow
	idx := unit % r.dataPerRow
	grp := refGroupOf(r.groups, idx, parities)
	d := int(idx - grp.firstData)
	if parities == 1 {
		if d >= parityPos(row, grp.size) {
			d++
		}
		return PBA{Disk: grp.firstDisk + d, Block: row*r.unit + off}
	}
	lo, hi := parityPositions(row, grp.size)
	if lo > hi {
		lo, hi = hi, lo
	}
	if d >= lo {
		d++
	}
	if d >= hi {
		d++
	}
	return PBA{Disk: grp.firstDisk + d, Block: row*r.unit + off}
}

// refParities is the original ParityOf/QParityOf: scan for the group,
// apply the rotation law. A parity the level lacks has Disk -1.
func refParities(r *Striped, block int64, parities int) (p, q PBA) {
	checkBlock(block, 1, r.capacity)
	p, q = PBA{Disk: -1}, PBA{Disk: -1}
	if parities == 0 {
		return p, q
	}
	unit := block / r.unit
	at := unit/r.dataPerRow*r.unit + block%r.unit
	row := unit / r.dataPerRow
	grp := refGroupOf(r.groups, unit%r.dataPerRow, parities)
	if parities == 1 {
		return PBA{Disk: grp.firstDisk + parityPos(row, grp.size), Block: at}, q
	}
	pp, qp := parityPositions(row, grp.size)
	return PBA{Disk: grp.firstDisk + pp, Block: at}, PBA{Disk: grp.firstDisk + qp, Block: at}
}

// TestRotationLUTMatchesReference pins the branch-free table paths —
// Locate, ParityOf, QParityOf — to the original scan-and-branch math on
// every block of every test geometry (full sweep for the small ones,
// random sample plus edges for the rest), for 0, 1 and 2 parities.
func TestRotationLUTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocksFor := func(capacity int64) []int64 {
		if capacity <= 20000 {
			out := make([]int64, capacity)
			for i := range out {
				out[i] = int64(i)
			}
			return out
		}
		out := []int64{0, 1, capacity - 1}
		for i := 0; i < 20000; i++ {
			out = append(out, rng.Int63n(capacity))
		}
		return out
	}
	for name, r := range stripedLayouts(t) {
		parities := paritiesOf(name)
		for _, b := range blocksFor(r.DataBlocks()) {
			if got, want := r.Locate(b), refLocate(r, b, parities); got != want {
				t.Fatalf("%s: Locate(%d) = %v, want %v", name, b, got, want)
			}
			wantP, wantQ := refParities(r, b, parities)
			if p, ok := r.ParityOf(b); p != wantP || ok != (parities >= 1) {
				t.Fatalf("%s: ParityOf(%d) = %v, %v, want %v", name, b, p, ok, wantP)
			}
			if q, ok := r.QParityOf(b); q != wantQ || ok != (parities == 2) {
				t.Fatalf("%s: QParityOf(%d) = %v, %v, want %v", name, b, q, ok, wantQ)
			}
		}
	}
}

// TestRotationLUTParityNeverCollides sanity-checks the tables directly:
// within every phase of every group, the parities the level has and the
// data slots occupy distinct disks covering exactly 0..size-1.
func TestRotationLUTParityNeverCollides(t *testing.T) {
	for name, r := range stripedLayouts(t) {
		parities := paritiesOf(name)
		for gi := range r.groups {
			g := &r.groups[gi]
			for phase := 0; phase < g.size; phase++ {
				seen := make(map[int]bool, g.size)
				if parities >= 1 {
					seen[g.pDisk[phase]] = true
				}
				if parities == 2 {
					if seen[g.qDisk[phase]] {
						t.Fatalf("%s: group %d phase %d: Q collides with P", name, gi, phase)
					}
					seen[g.qDisk[phase]] = true
				}
				for s := 0; s < g.dataSlots; s++ {
					d := g.dataDisk[phase*g.dataSlots+s]
					if d < 0 || d >= g.size || seen[d] {
						t.Fatalf("%s: group %d phase %d slot %d: disk %d out of range or reused",
							name, gi, phase, s, d)
					}
					seen[d] = true
				}
				if len(seen) != g.size {
					t.Fatalf("%s: group %d phase %d covers %d of %d disks",
						name, gi, phase, len(seen), g.size)
				}
			}
		}
	}
}

// BenchmarkLocate measures the per-block address computation the
// redirector's hottest helpers lean on: LUT path vs the scan-and-branch
// reference, on a grouped RAID-5 and a grouped RAID-6.
func BenchmarkLocate(b *testing.B) {
	r5 := NewRAID5(50, 10, 4096, 32)
	r6 := NewRAID6(52, 13, 4096, 32)
	cap5, cap6 := r5.DataBlocks(), r6.DataBlocks()
	b.Run("raid5/lut", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += r5.Locate(int64(i*997) % cap5).Block
		}
		_ = sink
	})
	b.Run("raid5/ref", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += refLocate(r5, int64(i*997)%cap5, 1).Block
		}
		_ = sink
	})
	b.Run("raid6/lut", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += r6.Locate(int64(i*997) % cap6).Block
		}
		_ = sink
	})
	b.Run("raid6/ref", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += refLocate(r6, int64(i*997)%cap6, 2).Block
		}
		_ = sink
	})
}
