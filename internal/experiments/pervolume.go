package experiments

import (
	"fmt"
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
// DatasetBlocks). Each cell is exactly the run `craidsim -volume N`
// makes: it opens the file, parses its own volume's records off its
// simulation path, and closes the file when it ends. Cells run
// concurrently under r's worker pool, so a k-volume file keeps up to
// min(k, Parallel) parsers and simulations — and descriptors — busy at
// once.
//
// Results are returned in ascending DiskNumber order.
func (r *Runner) RunMSRVolumes(path string, base RunConfig) ([]VolumeResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	vols, err := trace.MSRVolumes(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: scanning %s: %w", path, err)
	}
	if len(vols) == 0 {
		return nil, fmt.Errorf("experiments: %s holds no records", path)
	}
	cfgs := make([]RunConfig, len(vols))
	for i, v := range vols {
		c := base
		c.TraceFile = path
		c.TraceFormat = "msr"
		c.TraceVolume = &v
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
