// Package trace models block-level I/O traces: the record type shared
// by the simulator and the analysis code, streaming readers and
// writers for a native text format, and parsers for two published
// trace formats (MSR-Cambridge CSV and SRCMap/blkparse-style text).
//
// The CRAID paper replays seven real-world traces (cello99, deasna,
// home02, webresearch, webusers, wdev, proj). Those datasets are not
// redistributable, so this repository generates calibrated synthetic
// equivalents (internal/workload); the parsers here let genuine traces
// drop in unchanged when available.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"craid/internal/disk"
	"craid/internal/sim"
)

// Record is one traced block-level request. Block and Count are in
// logical blocks (disk.BlockSize bytes); Time is the offset from the
// start of the trace.
type Record struct {
	Time  sim.Time
	Op    disk.Op
	Block int64
	Count int64
}

// End returns the first block after the request.
func (r Record) End() int64 { return r.Block + r.Count }

// Reader streams trace records.
type Reader interface {
	// Next returns the next record, or io.EOF when the trace ends.
	Next() (Record, error)
}

// Slice adapts an in-memory record slice to a Reader.
type Slice struct {
	records []Record
	pos     int
}

// NewSlice returns a Reader over records.
func NewSlice(records []Record) *Slice { return &Slice{records: records} }

// Next implements Reader.
func (s *Slice) Next() (Record, error) {
	if s.pos >= len(s.records) {
		return Record{}, io.EOF
	}
	r := s.records[s.pos]
	s.pos++
	return r, nil
}

// ReadAll drains r into a slice.
func ReadAll(r Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// --- native format ---
//
// One record per line: "<time_us> <R|W> <block> <count>". Comment lines
// start with '#'. Compact, diff-able, and trivially greppable.

// Writer emits the native text format.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	op := byte('R')
	if r.Op == disk.OpWrite {
		op = 'W'
	}
	_, w.err = fmt.Fprintf(w.w, "%d %c %d %d\n",
		int64(r.Time)/int64(sim.Microsecond), op, r.Block, r.Count)
	return w.err
}

// Flush completes the output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// NativeReader parses the native format.
type NativeReader struct {
	sc   *bufio.Scanner
	line int
}

// NewNativeReader returns a Reader for the native text format.
func NewNativeReader(r io.Reader) *NativeReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &NativeReader{sc: sc}
}

// Next implements Reader. The line stays a sub-slice of the scanner's
// buffer end to end (fields, numeric conversion), so the steady-state
// parse loop allocates nothing; see parsebytes.go.
func (n *NativeReader) Next() (Record, error) {
	for n.sc.Scan() {
		n.line++
		line := bytes.TrimSpace(n.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f0, rest := cutFieldBytes(line)
		f1, rest := cutFieldBytes(rest)
		f2, rest := cutFieldBytes(rest)
		f3, rest := cutFieldBytes(rest)
		if len(f3) == 0 || len(rest) != 0 {
			return Record{}, fmt.Errorf("trace: line %d: want 4 fields, got %d", n.line, len(bytes.Fields(line)))
		}
		us, err := strconv.ParseInt(string(f0), 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: time: %w", n.line, err)
		}
		var op disk.Op
		switch {
		case len(f1) == 1 && (f1[0] == 'R' || f1[0] == 'r'):
			op = disk.OpRead
		case len(f1) == 1 && (f1[0] == 'W' || f1[0] == 'w'):
			op = disk.OpWrite
		default:
			return Record{}, fmt.Errorf("trace: line %d: bad op %q", n.line, f1)
		}
		block, err := strconv.ParseInt(string(f2), 10, 64)
		if err != nil || block < 0 {
			return Record{}, fmt.Errorf("trace: line %d: bad block %q", n.line, f2)
		}
		count, err := strconv.ParseInt(string(f3), 10, 64)
		if err != nil || count < 1 {
			return Record{}, fmt.Errorf("trace: line %d: bad count %q", n.line, f3)
		}
		return Record{
			Time:  sim.Time(us) * sim.Microsecond,
			Op:    op,
			Block: block,
			Count: count,
		}, nil
	}
	if err := n.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// --- MSR-Cambridge CSV format ---
//
// "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime" where
// Timestamp is a Windows FILETIME (100 ns ticks since 1601), Offset and
// Size are bytes. The wdev and proj workloads in the paper use this
// format (Narayanan et al., "Write off-loading").

// Static byte patterns for the MSR column scan, hoisted so the parse
// loop never materializes them per line.
var (
	commaSep = []byte(",")
	msrRead  = []byte("read")
	msrWrite = []byte("write")
)

// MSRReader parses MSR-Cambridge storage traces. Timestamps are
// rebased so the first record is at time 0; byte offsets are converted
// to 4 KiB blocks (rounded down for offset, up for end).
type MSRReader struct {
	sc    *bufio.Scanner
	line  int
	base  int64 // first FILETIME seen
	haveT bool
	// Volume, if >= 0, keeps only records of that DiskNumber.
	Volume int
}

// NewMSRReader returns a Reader for MSR CSV traces, keeping all
// volumes.
func NewMSRReader(r io.Reader) *MSRReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &MSRReader{sc: sc, Volume: -1}
}

// Next implements Reader. Like NativeReader.Next, the line is scanned
// as byte sub-slices so the steady-state parse loop allocates nothing.
func (m *MSRReader) Next() (Record, error) {
	for m.sc.Scan() {
		m.line++
		line := bytes.TrimSpace(m.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f0, rest, ok0 := bytes.Cut(line, commaSep)
		_, rest, ok1 := bytes.Cut(rest, commaSep) // hostname, unused
		f2, rest, ok2 := bytes.Cut(rest, commaSep)
		f3, rest, ok3 := bytes.Cut(rest, commaSep)
		f4, rest, ok4 := bytes.Cut(rest, commaSep)
		f5, _, ok5 := bytes.Cut(rest, commaSep)
		if !ok0 || !ok1 || !ok2 || !ok3 || !ok4 {
			return Record{}, fmt.Errorf("trace: msr line %d: want >=6 fields, got %d",
				m.line, bytes.Count(line, commaSep)+1)
		}
		_ = ok5 // a trailing 6th field needs no terminating comma
		ft, err := strconv.ParseInt(string(f0), 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: msr line %d: timestamp: %w", m.line, err)
		}
		if m.Volume >= 0 {
			vol, err := strconv.Atoi(string(f2))
			if err != nil {
				return Record{}, fmt.Errorf("trace: msr line %d: disk number: %w", m.line, err)
			}
			if vol != m.Volume {
				continue
			}
		}
		var op disk.Op
		switch {
		case bytes.EqualFold(f3, msrRead):
			op = disk.OpRead
		case bytes.EqualFold(f3, msrWrite):
			op = disk.OpWrite
		default:
			return Record{}, fmt.Errorf("trace: msr line %d: bad type %q", m.line, f3)
		}
		off, err := strconv.ParseInt(string(f4), 10, 64)
		if err != nil || off < 0 {
			return Record{}, fmt.Errorf("trace: msr line %d: bad offset %q", m.line, f4)
		}
		size, err := strconv.ParseInt(string(f5), 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: msr line %d: size: %w", m.line, err)
		}
		if size < 1 {
			// A request must transfer at least one byte: a zero or
			// negative size would otherwise round up to a phantom
			// one-block access and skew every per-block ratio.
			return Record{}, fmt.Errorf("trace: msr line %d: non-positive size %d", m.line, size)
		}
		if !m.haveT {
			m.base, m.haveT = ft, true
		}
		block := off / disk.BlockSize
		end := (off + size + disk.BlockSize - 1) / disk.BlockSize
		count := end - block
		return Record{
			Time:  sim.Time(ft-m.base) * 100, // FILETIME tick = 100 ns
			Op:    op,
			Block: block,
			Count: count,
		}, nil
	}
	if err := m.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// --- SRCMap / blkparse-style format ---
//
// "<seconds.frac> <device> <R|W> <sector> <sectors>": timestamps in
// seconds, addresses in 512-byte sectors. Covers the SRCMap
// (webresearch/webusers) exports and common blktrace conversions.

// BlkReader parses blkparse-style text traces.
type BlkReader struct {
	sc    *bufio.Scanner
	line  int
	base  float64
	haveT bool
}

// NewBlkReader returns a Reader for blkparse-style traces.
func NewBlkReader(r io.Reader) *BlkReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &BlkReader{sc: sc}
}

// Static byte patterns for the blkparse op column.
var (
	blkRead  = []byte("R")
	blkReadL = []byte("READ")
	blkWrite = []byte("W")
	blkWrtL  = []byte("WRITE")
)

// Next implements Reader; byte-sliced like the other parsers.
func (b *BlkReader) Next() (Record, error) {
	const sectorsPerBlock = disk.BlockSize / 512
	for b.sc.Scan() {
		b.line++
		line := bytes.TrimSpace(b.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		f0, rest := cutFieldBytes(line)
		_, rest = cutFieldBytes(rest) // device, unused
		f2, rest := cutFieldBytes(rest)
		f3, rest := cutFieldBytes(rest)
		f4, _ := cutFieldBytes(rest)
		if len(f4) == 0 {
			return Record{}, fmt.Errorf("trace: blk line %d: want 5 fields, got %d", b.line, len(bytes.Fields(line)))
		}
		ts, err := strconv.ParseFloat(string(f0), 64)
		if err != nil {
			return Record{}, fmt.Errorf("trace: blk line %d: time: %w", b.line, err)
		}
		var op disk.Op
		switch {
		case bytes.EqualFold(f2, blkRead), bytes.EqualFold(f2, blkReadL):
			op = disk.OpRead
		case bytes.EqualFold(f2, blkWrite), bytes.EqualFold(f2, blkWrtL):
			op = disk.OpWrite
		default:
			return Record{}, fmt.Errorf("trace: blk line %d: bad op %q", b.line, f2)
		}
		sector, err := strconv.ParseInt(string(f3), 10, 64)
		if err != nil || sector < 0 {
			return Record{}, fmt.Errorf("trace: blk line %d: bad sector %q", b.line, f3)
		}
		sectors, err := strconv.ParseInt(string(f4), 10, 64)
		if err != nil || sectors < 1 {
			return Record{}, fmt.Errorf("trace: blk line %d: bad sector count %q", b.line, f4)
		}
		if !b.haveT {
			b.base, b.haveT = ts, true
		}
		block := sector / sectorsPerBlock
		end := (sector + sectors + sectorsPerBlock - 1) / sectorsPerBlock
		return Record{
			Time:  sim.Time((ts - b.base) * float64(sim.Second)),
			Op:    op,
			Block: block,
			Count: end - block,
		}, nil
	}
	if err := b.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// --- filters ---

// Window returns a Reader passing only records with from <= Time < to,
// rebased so the window starts at time 0.
func Window(r Reader, from, to sim.Time) Reader {
	return &windowReader{r: r, from: from, to: to}
}

type windowReader struct {
	r        Reader
	from, to sim.Time
}

func (w *windowReader) Next() (Record, error) {
	for {
		rec, err := w.r.Next()
		if err != nil {
			return Record{}, err
		}
		if rec.Time < w.from {
			continue
		}
		if rec.Time >= w.to {
			return Record{}, io.EOF
		}
		rec.Time -= w.from
		return rec, nil
	}
}

// Clamp returns a Reader that wraps records into [0, blocks) by taking
// addresses modulo the dataset size — used to replay traces collected
// on larger volumes against a smaller simulated dataset.
func Clamp(r Reader, blocks int64) Reader {
	if blocks <= 0 {
		panic("trace: Clamp needs a positive block count")
	}
	return &clampReader{r: r, blocks: blocks}
}

type clampReader struct {
	r      Reader
	blocks int64
}

func (c *clampReader) Next() (Record, error) {
	rec, err := c.r.Next()
	if err != nil {
		return Record{}, err
	}
	if rec.Count > c.blocks {
		rec.Count = c.blocks
	}
	rec.Block %= c.blocks
	if rec.Block+rec.Count > c.blocks {
		rec.Block = c.blocks - rec.Count
	}
	return rec, nil
}
