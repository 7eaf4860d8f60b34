package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// MSRVolumes scans an MSR-Cambridge CSV stream and returns the distinct
// DiskNumbers it contains, ascending. MSR traces interleave several
// volumes of one host in a single file; enumerating them is the first
// half of per-volume replay — each returned volume can then be fed to
// its own MSRReader (with Volume set) over an independent file handle,
// so the per-volume streams parse in parallel inside their simulations'
// replay pipelines.
//
// The scan parses only the DiskNumber column, so it is far cheaper than
// a full parse of the file.
func MSRVolumes(r io.Reader) ([]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	seen := make(map[int]bool)
	line := 0
	for sc.Scan() {
		line++
		s := bytes.TrimSpace(sc.Bytes())
		if len(s) == 0 || s[0] == '#' {
			continue
		}
		_, rest, ok0 := bytes.Cut(s, commaSep)
		_, rest, ok1 := bytes.Cut(rest, commaSep)
		f2, _, ok2 := bytes.Cut(rest, commaSep)
		if !ok0 || !ok1 || !ok2 {
			return nil, fmt.Errorf("trace: msr line %d: want >=4 fields", line)
		}
		vol, err := strconv.Atoi(string(f2))
		if err != nil || vol < 0 {
			return nil, fmt.Errorf("trace: msr line %d: bad disk number %q", line, f2)
		}
		seen[vol] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	vols := make([]int, 0, len(seen))
	for v := range seen {
		vols = append(vols, v)
	}
	sort.Ints(vols)
	return vols, nil
}
