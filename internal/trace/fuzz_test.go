package trace

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"craid/internal/sim"
)

// The fuzz targets guard the hand-rolled strings.Cut/cutField scanning
// in the parsers: arbitrary input must never panic, loop forever, or
// yield a record violating the invariants the simulator relies on
// (non-negative block, count >= 1). Seeds cover well-formed lines,
// every rejection path, and shapes that previously needed care (torn
// fields, huge numbers, sign tricks, empty lines).

// drain pulls records until EOF or the first parse error, checking
// invariants on every successful record.
func drain(t *testing.T, r Reader) {
	t.Helper()
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			return // malformed input must error, not panic
		}
		if rec.Block < 0 {
			t.Fatalf("record %d: negative block %d", i, rec.Block)
		}
		if rec.Count < 1 {
			t.Fatalf("record %d: count %d < 1", i, rec.Count)
		}
		if i > 1<<20 {
			t.Fatal("reader did not terminate")
		}
	}
}

func FuzzParseNative(f *testing.F) {
	f.Add("0 R 100 8\n1000 W 200 16\n")
	f.Add("# comment\n\n  5 r 0 1\n")
	f.Add("5 X 0 1\n")                    // bad op
	f.Add("5 R -3 1\n")                   // negative block
	f.Add("5 R 3 0\n")                    // zero count
	f.Add("5 R 3\n")                      // missing field
	f.Add("5 R 3 1 extra\n")              // trailing field
	f.Add("99999999999999999999 R 0 1\n") // overflow
	f.Add("5\tR\t3\t1\n")                 // tabs
	f.Fuzz(func(t *testing.T, data string) {
		drain(t, NewNativeReader(strings.NewReader(data)))
	})
}

func FuzzParseMSR(f *testing.F) {
	f.Add("128166372003061629,host,0,Read,4096,4096,100\n")
	f.Add("128166372003061629,host,3,Write,0,512,100\n")
	f.Add("1,h,0,read,1,1\n")       // no trailing field, lowercase op
	f.Add("1,h,0,Flush,1,1,1\n")    // bad type
	f.Add("1,h,0,Read,-4096,1,1\n") // negative offset
	f.Add("1,h,0,Read,1,-1,1\n")    // negative size
	f.Add("1,h,0,Write,0,0,100\n")  // zero size
	f.Add("1,h,x,Read,1,1,1\n")     // bad disk number (only when filtered)
	f.Add("x,h,0,Read,1,1,1\n")     // bad timestamp
	f.Add("1,h,0\n")                // short line
	f.Add(",,,,,,\n")               // empty fields
	f.Fuzz(func(t *testing.T, data string) {
		drain(t, NewMSRReader(strings.NewReader(data)))
		// The volume-filtered path parses DiskNumber too.
		filtered := NewMSRReader(strings.NewReader(data))
		filtered.Volume = 0
		drain(t, filtered)
		// And the volume enumerator shares the column scanning.
		_, _ = MSRVolumes(strings.NewReader(data))
	})
}

// drainCount is drain plus bookkeeping: it reports how many records
// parsed and whether the stream ended cleanly at EOF (rather than at a
// malformed line).
func drainCount(t *testing.T, r Reader) (n int64, clean bool) {
	t.Helper()
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return n, true
		}
		if err != nil {
			return n, false
		}
		if rec.Block < 0 {
			t.Fatalf("record %d: negative block %d", n, rec.Block)
		}
		if rec.Count < 1 {
			t.Fatalf("record %d: count %d < 1", n, rec.Count)
		}
		n++
		if n > 1<<20 {
			t.Fatal("reader did not terminate")
		}
	}
}

// FuzzParseMSRPerVolume fuzzes the per-volume split path end to end the
// way RunMSRVolumes drives it: enumerate DiskNumbers with MSRVolumes,
// then parse one filtered stream per volume over independent
// SectionReaders of the same bytes (the shared-pread-handle layout).
// Arbitrary input must never panic any stage, and whenever every stream
// ends cleanly the per-volume streams must partition the joint stream
// record for record.
func FuzzParseMSRPerVolume(f *testing.F) {
	f.Add("1,h,0,Read,4096,4096,1\n2,h,3,Write,0,512,1\n3,h,0,Read,8192,512,1\n") // volumes interleave
	f.Add("1,h,2,Read,1,1,1\n2,h,2,Write,0,0,1\n")                                // malformed line inside one volume
	f.Add("1,h,0,Read,1,1,1\n2,h,-1,Read,1,1,1\n")                                // negative volume number
	f.Add("1,h,0,Read,1,1,1\n2,h,x,Read,1,1,1\n")                                 // volume column corrupt mid-stream
	f.Add("1,h,7,read,1,1\n2,h,7,write,1,1\n")                                    // short lines, one volume
	f.Add("# c\n\n1,h,1,Read,1,1,1\n2,h,1,Flush,1,1,1\n3,h,2,Read,1,1,1\n")       // bad op in one volume only
	f.Add("x,h,0,Read,1,1,1\n1,h,1,Read,1,1,1\n")                                 // bad timestamp, good volumes
	f.Fuzz(func(t *testing.T, data string) {
		at := strings.NewReader(data)
		size := int64(len(data))
		section := func() io.Reader { return io.NewSectionReader(at, 0, size) }
		vols, err := MSRVolumes(section())
		if err != nil {
			return // a corrupt volume column must error, not panic
		}
		truncated := len(vols) > 8
		if truncated {
			vols = vols[:8] // bound fuzz cost; the split logic is per-volume
		}
		total, clean := drainCount(t, NewMSRReader(section()))
		var split int64
		allClean := true
		for _, v := range vols {
			r := NewMSRReader(section())
			r.Volume = v
			n, c := drainCount(t, r)
			split += n
			allClean = allClean && c
		}
		// MSRVolumes enumerated every DiskNumber, so with every stream
		// clean each joint record belongs to exactly one filtered stream.
		if clean && allClean && !truncated && split != total {
			t.Fatalf("per-volume split parsed %d records, joint stream %d", split, total)
		}
	})
}

// numericField reports whether s, put in a line as one field, stays that
// one field: no separator, no line break, no leading comment mark and no
// edge the reader's TrimSpace would take off.
func numericField(s string) bool {
	return s != "" && s[0] != '#' && !strings.ContainsAny(s, " \t\r\n") && strings.TrimSpace(s) == s
}

// sameVerdict fails t unless the reader's err and strconv's want agree:
// both nil, or err wrapping the strconv error's cause.
func sameVerdict(t *testing.T, s string, err, want error) {
	t.Helper()
	if want == nil {
		if err != nil {
			t.Fatalf("field %q: reader error %v, strconv accepts it", s, err)
		}
		return
	}
	if !errors.Is(err, want.(*strconv.NumError).Err) {
		t.Fatalf("field %q: reader error %v, strconv error %v", s, err, want)
	}
}

// FuzzParseIntBytes pins an integer field, cut out of its line and
// converted from the line's bytes, to strconv.ParseInt on the same text:
// the native reader accepts a time field exactly when strconv does, with
// strconv's error, and reads strconv's value.
func FuzzParseIntBytes(f *testing.F) {
	f.Add("0")
	f.Add("-1")
	f.Add("+42")
	f.Add("9223372036854775807")  // MaxInt64
	f.Add("-9223372036854775808") // MinInt64
	f.Add("9223372036854775808")  // overflow
	f.Add("99999999999999999999999999")
	f.Add("000000000000000000000007") // long but in range
	f.Add("12x3")
	f.Add("")
	f.Add("-")
	f.Add(" 5")
	f.Fuzz(func(t *testing.T, s string) {
		if !numericField(s) {
			return
		}
		want, wantErr := strconv.ParseInt(s, 10, 64)
		rec, err := NewNativeReader(strings.NewReader(s + " R 0 1\n")).Next()
		sameVerdict(t, s, err, wantErr)
		if err == nil && rec.Time != sim.Time(want)*sim.Microsecond {
			t.Fatalf("time field %q read as %d, strconv says %d us", s, rec.Time, want)
		}
	})
}

// FuzzParseFloatBytes does the same for a blk timestamp against
// strconv.ParseFloat. A first line at time 0 sets the base, so the
// second line's record is at its timestamp.
func FuzzParseFloatBytes(f *testing.F) {
	f.Add("0.000000")
	f.Add("1.5")
	f.Add("123456789.123456")  // 15 significant digits
	f.Add("1234567890.123456") // 16
	f.Add("-0.0")
	f.Add("5.")
	f.Add(".5")
	f.Add("1e308")
	f.Add("NaN")
	f.Add("Inf")
	f.Add("0.0000000000000000000000001")
	f.Add("..")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		if !numericField(s) {
			return
		}
		want, wantErr := strconv.ParseFloat(s, 64)
		r := NewBlkReader(strings.NewReader("0 d R 0 1\n" + s + " d R 0 1\n"))
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		rec, err := r.Next()
		sameVerdict(t, s, err, wantErr)
		if err == nil && rec.Time != sim.Time(want*float64(sim.Second)) {
			t.Fatalf("timestamp %q read as %d ns, strconv says %g s", s, rec.Time, want)
		}
	})
}

func FuzzParseBlk(f *testing.F) {
	f.Add("0.000000 0 R 2048 8\n1.5 0 W 4096 16\n")
	f.Add("0.1 dev READ 0 1\n")
	f.Add("0.1 dev Q 0 1\n")   // bad op
	f.Add("0.1 dev R -8 1\n")  // negative sector
	f.Add("0.1 dev R 8 0\n")   // zero sectors
	f.Add("0.1 dev R 8\n")     // short line
	f.Add("NaN dev R 8 1\n")   // NaN time
	f.Add("1e308 dev R 8 1\n") // huge time
	f.Fuzz(func(t *testing.T, data string) {
		drain(t, NewBlkReader(strings.NewReader(data)))
	})
}
