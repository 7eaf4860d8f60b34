package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// layers are the packages a record's cost is attributed to. runtime is
// GC + malloc + scheduler + memmove; other is everything else (the
// standard library below the parser, encoding/json of the benchmark's
// own checks, ...).
var layers = []string{"trace", "workload", "experiments", "core", "mapcache", "cache",
	"raid", "sim", "disk", "metrics", "fault", "runtime", "other"}

// layerOf maps a symbol such as "craid/internal/cache.(*WLRU).pickVictim"
// to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "craid/internal/"); ok {
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// pkgProfile buckets the flat (self) CPU time of pprof profiles by the
// leaf frame's layer: the same numbers `go tool pprof -top` prints in
// its flat column, summed by package. Self time is exclusive, so the
// shares add to one.
type pkgProfile struct {
	ns    map[string]int64
	total int64
}

func newPkgProfile() *pkgProfile { return &pkgProfile{ns: map[string]int64{}} }

var errProfile = errors.New("malformed pprof profile")

// pbFields walks one protobuf message, calling fn for every varint
// (wire type 0) and length-delimited (wire type 2) field.
func pbFields(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1, 5:
			skip := 8
			if wire == 5 {
				skip = 4
			}
			if len(b) < skip {
				return errProfile
			}
			b = b[skip:]
		default:
			return errProfile
		}
	}
	return nil
}

// pbVarints appends the values of a repeated varint field, packed or not.
func pbVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// add decodes one gzipped profile.proto (the format runtime/pprof
// writes) and accumulates its samples. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.
func (p *pkgProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		leaf uint64 // location id of the innermost frame
		ns   int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string table index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
	)
	err = pbFields(raw, func(num, wire int, _ uint64, data []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample{location_id = 1, value = 2}
			var locs, vals []uint64
			if err := pbFields(data, func(num, wire int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					locs, err = pbVarints(locs, wire, v, data)
				case 2:
					vals, err = pbVarints(vals, wire, v, data)
				}
				return err
			}); err != nil {
				return err
			}
			if len(vals) == 0 {
				return errProfile
			}
			s := sample{ns: int64(vals[len(vals)-1])} // CPU profiles: [samples, cpu ns]
			if len(locs) > 0 {
				s.leaf = locs[0]
			}
			samples = append(samples, s)
		case num == 4 && wire == 2: // Location{id = 1, line = 4}; line[0] is the innermost inlined frame
			var id, fn uint64
			seen := false
			if err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2 && !seen:
					seen = true
					return pbFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 { // Line{function_id = 1}
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case num == 5 && wire == 2: // Function{id = 1, name = 2}
			var id, name uint64
			if err := pbFields(data, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && num == 1 {
					id = v
				} else if wire == 0 && num == 2 {
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		p.ns[layerOf(name)] += s.ns
		p.total += s.ns
	}
	return nil
}
