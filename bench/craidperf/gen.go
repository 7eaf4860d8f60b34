package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"

	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/trace"
	"craid/internal/workload"
)

const (
	// msrEpoch is the FILETIME (100 ns ticks since 1601) of 2007-02-22
	// 17:00 UTC, when the MSR-Cambridge week was collected.
	msrEpoch = 128166372000000000
	// The MSR format carries byte offsets and sizes.
	blockBytes = disk.BlockSize
)

// msrLine appends one record in MSR-Cambridge CSV form:
// Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime.
func msrLine(b []byte, r trace.Record) []byte {
	b = strconv.AppendInt(b, msrEpoch+int64(r.Time)/100, 10)
	b = append(b, ",proj,0,"...)
	if r.Op == disk.OpRead {
		b = append(b, "Read,"...)
	} else {
		b = append(b, "Write,"...)
	}
	b = strconv.AppendInt(b, r.Block*blockBytes, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.Count*blockBytes, 10)
	// ResponseTime is ignored by the parser; a size-derived value keeps
	// the column realistic without another random stream.
	b = append(b, ',')
	b = strconv.AppendInt(b, 1000+r.Count*37, 10)
	return append(b, '\n')
}

// writeMSR writes the proj-shaped MSR CSV for seed to path, synced to
// stable storage, and returns its stream description and SHA-256. The
// same (seed, size) gives a byte-identical file.
func writeMSR(path string, seed int64, size float64) (*stream, string, error) {
	p, err := workload.Preset("proj")
	if err != nil {
		return nil, "", err
	}
	p = p.Scaled(experiments.ScaleFor("proj", 12*size))
	p.Seed = seed
	gen := workload.New(p)
	s := &stream{name: "proj-msr", file: path, dataset: gen.DatasetBlocks()}

	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close() // error paths; the success path checks Close below
	h := sha256.New()
	w := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	var line []byte
	for {
		r, err := gen.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, "", fmt.Errorf("msr generator: %w", err)
		}
		line = msrLine(line[:0], r)
		if _, err := w.Write(line); err != nil {
			return nil, "", err
		}
		s.records++
	}
	if err := w.Flush(); err != nil {
		return nil, "", err
	}
	if err := f.Sync(); err != nil {
		return nil, "", err
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	return s, hex.EncodeToString(h.Sum(nil)), nil
}
