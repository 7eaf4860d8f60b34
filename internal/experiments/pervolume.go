package experiments

import (
	"fmt"
	"io"
	"os"

	"craid/internal/trace"
)

// VolumeResult pairs one MSR DiskNumber with its simulation result.
type VolumeResult struct {
	Volume int
	RunResult
}

// RunMSRVolumes splits an MSR-Cambridge multi-volume trace file into
// its per-volume streams and replays each against an independent
// simulation built from base (TraceFile/TraceFormat/TraceVolume are
// overridden per cell; everything else — strategy, P_C size,
// DatasetBlocks — is taken as given, and a zero Scale is derived from
// DatasetBlocks). Cells run concurrently under r's worker pool,
// and each cell's replay pipeline parses its own volume's records off
// its simulation path, so a k-volume file keeps up to k parsers and k
// simulations busy at once.
//
// All cells share ONE open file: the volume scan and every per-volume
// reader work through pread-style io.ReaderAt sections of the same
// handle (RunConfig.TraceAt), so a wide MSR host costs one descriptor
// regardless of volume count instead of one per volume.
//
// Results are returned in ascending DiskNumber order.
func (r *Runner) RunMSRVolumes(path string, base RunConfig) ([]VolumeResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	vols, err := trace.MSRVolumes(io.NewSectionReader(f, 0, size))
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", path, err)
	}
	if len(vols) == 0 {
		return nil, fmt.Errorf("experiments: %s holds no records", path)
	}
	cfgs := make([]RunConfig, len(vols))
	for i, v := range vols {
		v := v
		c := base
		c.TraceFile = path
		c.TraceFormat = "msr"
		c.TraceVolume = &v
		c.TraceAt = f
		c.TraceAtSize = size
		if c.Trace == "" {
			c.Trace = fmt.Sprintf("msr-vol%d", v)
		}
		cfgs[i] = c
	}
	results, err := r.RunAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]VolumeResult, len(vols))
	for i, v := range vols {
		out[i] = VolumeResult{Volume: v, RunResult: results[i]}
	}
	return out, nil
}
