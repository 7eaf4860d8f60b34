package mapcache

// dirtySet is the growable open-addressing hash set behind
// Table.IsDirty. WLRU's victim scan probes it once per entry reaching
// the LRU end and every write hit updates it, so the probe path is
// built like cache's keyIndex: Fibonacci multiplicative
// hashing, linear probing at <= 0.5 load, backward-shift deletion (no
// tombstones, so probe chains never rot under write-back churn). A Go
// map here was measurably the single hottest function of a replay.
//
// Cells hold the archive address biased by +1 so 0 means empty. The
// bias collides only for orig == -1 (not a real LBA, but property
// tests exercise the full int64 domain), which gets a dedicated flag.
type dirtySet struct {
	cells  []uint64
	mask   uint64
	shift  uint8
	n      int
	negOne bool // membership of orig == -1, whose biased key would be 0
}

// has reports membership; the zero-value set answers false.
func (d *dirtySet) has(orig int64) bool {
	if orig == -1 {
		return d.negOne
	}
	if d.n == 0 {
		return false
	}
	k := uint64(orig) + 1
	i := (k * 0x9E3779B97F4A7C15) >> d.shift
	for {
		c := d.cells[i]
		if c == 0 {
			return false
		}
		if c == k {
			return true
		}
		i = (i + 1) & d.mask
	}
}

// add inserts orig (idempotent).
func (d *dirtySet) add(orig int64) {
	if orig == -1 {
		d.negOne = true
		return
	}
	if 2*(d.n+1) > len(d.cells) {
		d.grow()
	}
	k := uint64(orig) + 1
	i := (k * 0x9E3779B97F4A7C15) >> d.shift
	for {
		c := d.cells[i]
		if c == k {
			return
		}
		if c == 0 {
			d.cells[i] = k
			d.n++
			return
		}
		i = (i + 1) & d.mask
	}
}

// del removes orig if present, backward-shifting the tail of its probe
// chain.
func (d *dirtySet) del(orig int64) {
	if orig == -1 {
		d.negOne = false
		return
	}
	if d.n == 0 {
		return
	}
	k := uint64(orig) + 1
	i := (k * 0x9E3779B97F4A7C15) >> d.shift
	for {
		c := d.cells[i]
		if c == 0 {
			return // absent
		}
		if c == k {
			break
		}
		i = (i + 1) & d.mask
	}
	j := i
	for {
		j = (j + 1) & d.mask
		c := d.cells[j]
		if c == 0 {
			break
		}
		h := (c * 0x9E3779B97F4A7C15) >> d.shift
		if (j-h)&d.mask >= (j-i)&d.mask {
			d.cells[i] = c
			i = j
		}
	}
	d.cells[i] = 0
	d.n--
}

// clear empties the set, keeping the backing array.
func (d *dirtySet) clear() {
	d.negOne = false
	if d.n == 0 {
		return
	}
	for i := range d.cells {
		d.cells[i] = 0
	}
	d.n = 0
}

// grow doubles the table (or materializes the first one) and rehashes.
func (d *dirtySet) grow() {
	size, bits := 256, 8
	for size <= len(d.cells) {
		size *= 2
		bits++
	}
	old := d.cells
	d.cells = make([]uint64, size)
	d.mask = uint64(size - 1)
	d.shift = uint8(64 - bits)
	for _, c := range old {
		if c == 0 {
			continue
		}
		i := (c * 0x9E3779B97F4A7C15) >> d.shift
		for d.cells[i] != 0 {
			i = (i + 1) & d.mask
		}
		d.cells[i] = c
	}
}
