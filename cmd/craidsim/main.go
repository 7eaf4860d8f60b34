// Command craidsim runs one storage simulation: a workload (preset
// generator or trace file) replayed against one allocation strategy,
// reporting response times, hit ratios and distribution statistics.
//
// Usage:
//
//	craidsim -trace wdev -strategy CRAID-5 -pc 0.008
//	craidsim -trace cello99 -strategy RAID-5+ -budget 2
//	craidsim -file wdev.trace -format native -dataset-gb 4 -strategy CRAID-5 -pc 0.01
//	craidsim -file msr.csv -format msr -volume 2 -dataset-gb 4
//	craidsim -file msr.csv -format msr -pervolume -dataset-gb 4
//	craidsim -trace wdev -out result.json
//	craidsim -file msr.csv -format msr -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// With -file, the named trace file replaces the preset generator:
// -format picks the parser (native, msr, blk), -dataset-gb sizes the
// simulated dataset, and for MSR multi-volume files -volume restricts
// the replay to one DiskNumber (default: all volumes interleaved).
// -pervolume splits an MSR file (-format msr) into its volumes and
// replays each against an independent simulation in parallel, one
// result row per volume (each row is the run -volume N makes). A flag
// the chosen source ignores is an error: -trace and -budget with -file,
// the four file flags without it.
//
// A -fault plan with a crash recovers the controller from its in-memory
// dirty-translation log; the crash line reports what it recovered.
//
// -out writes the full JSON result to a file while the human-readable
// stats still print to stdout (use -json for JSON on stdout instead);
// with -pervolume the result is the list of per-volume results.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// simulation itself (not flag handling or result printing), the same
// flags craidbench has, so a trace-file replay can be profiled as is.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/metrics"
	"craid/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "craidsim:", err)
		os.Exit(1)
	}
}

// run is main with its arguments and standard output as parameters.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("craidsim", flag.ExitOnError)
	traceName := fs.String("trace", "wdev", "preset workload name")
	strategy := fs.String("strategy", "CRAID-5",
		"RAID-5 | RAID-5+ | CRAID-5 | CRAID-5+ | CRAID-5ssd | CRAID-5+ssd")
	pc := fs.Float64("pc", 0.008, "cache partition size, % per disk")
	policy := fs.String("policy", "WLRU", "monitor policy: LRU|LFUDA|GDSF|ARC|WLRU")
	budget := fs.Float64("budget", 0.5, "replayed GB (scales the workload)")
	bursty := fs.Bool("bursty", false, "bursty arrivals")
	file := fs.String("file", "", "replay this trace file instead of the preset")
	format := fs.String("format", "native", "trace file format: native|msr|blk")
	volume := fs.Int("volume", -1,
		"MSR only: replay one DiskNumber (negative = all volumes)")
	datasetGB := fs.Float64("dataset-gb", 4, "file traces: simulated dataset size in GB")
	perVolume := fs.Bool("pervolume", false,
		"MSR only: split the file into volumes and simulate each in parallel")
	faultSpec := fs.String("fault", "",
		"deterministic failure plan: events fail:D@T, transient:D@T-T2,rate,lat, rebuild:D@T,rate, crash@T, "+
			"expand@T,disks=N[,retain] and storm:crash@T,n=K,every=D; "+
			"compound plans compose, e.g. \"seed=7;fail:2@5s;rebuild:2@10s,rate=64;fail:12@8s;crash@20s\" "+
			"(second fault mid-rebuild + crash-restart) or \"seed=7;expand@5s,disks=5,retain;storm:crash@10s,n=3,every=5s\"")
	jsonOut := fs.Bool("json", false,
		"emit the full result (RunResult with replay and fault KPIs; with -pervolume one per volume) as JSON")
	outFile := fs.String("out", "",
		"also write the full JSON result to this file (stdout keeps the human-readable stats)")
	startProfiles := prof.Flags(fs)
	fs.Parse(args) // exits on a bad flag
	if err := checkSource(fs, *file != ""); err != nil {
		return err
	}

	cfg := experiments.RunConfig{
		Trace:     *traceName,
		Scale:     experiments.ScaleFor(*traceName, *budget),
		Strategy:  experiments.Strategy(*strategy),
		PCPct:     *pc,
		Policy:    *policy,
		Bursty:    *bursty,
		FaultSpec: *faultSpec,
		TrackLoad: true,
		TrackSeq:  true,
	}
	if *file != "" {
		cfg.Trace = *file
		cfg.TraceFile = *file
		cfg.TraceFormat = *format
		if *volume >= 0 {
			cfg.TraceVolume = volume
		}
		cfg.DatasetBlocks = int64(*datasetGB * 1e9 / disk.BlockSize)
		cfg.Scale = experiments.ScaleForBlocks(cfg.DatasetBlocks)
	}
	if *perVolume {
		switch {
		case strings.ToLower(*format) != "msr":
			return fmt.Errorf("-pervolume splits MSR volumes; -format %s has none (use -format msr)", *format)
		case *volume >= 0:
			return errors.New("-pervolume replays every volume; drop -volume or drop -pervolume")
		}
	}

	// The profiles cover the simulation itself, and are flushed as soon
	// as it returns.
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	var res experiments.RunResult
	var vols []experiments.VolumeResult
	var result any
	if *perVolume {
		vols, err = new(experiments.Runner).RunMSRVolumes(*file, cfg)
		result = vols
	} else {
		// A failure here includes data lost beyond redundancy.
		res, err = experiments.Run(cfg)
		result = res
	}
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "craidsim:", perr)
	}
	if err != nil {
		return err
	}

	if *outFile != "" {
		if err := writeResultFile(*outFile, result); err != nil {
			return err
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	}
	if *perVolume {
		fmt.Fprintf(stdout, "%s: %d volumes, strategy %s, P_C=%.4f%%/disk\n",
			*file, len(vols), cfg.Strategy, cfg.PCPct)
		fmt.Fprintf(stdout, "%6s %10s %10s %10s %8s %8s\n",
			"vol", "requests", "read(ms)", "write(ms)", "hitR", "hitW")
		for _, vr := range vols {
			hitR, hitW := 0.0, 0.0
			if vr.CRAID != nil {
				hitR, hitW = vr.CRAID.HitRatio(disk.OpRead), vr.CRAID.HitRatio(disk.OpWrite)
			}
			fmt.Fprintf(stdout, "%6d %10d %10.3f %10.3f %7.1f%% %7.1f%%\n",
				vr.Volume, vr.Requests,
				vr.ReadMean.Milliseconds(), vr.WriteMean.Milliseconds(),
				100*hitR, 100*hitW)
		}
		return nil
	}

	fmt.Fprintf(stdout, "trace:        %s (scale %.5f)\n", cfg.Trace, cfg.Scale)
	fmt.Fprintf(stdout, "strategy:     %s  P_C=%.4f%%/disk  policy=%s\n", cfg.Strategy, cfg.PCPct, cfg.Policy)
	fmt.Fprintf(stdout, "requests:     %d\n", res.Requests)
	fmt.Fprintf(stdout, "read:         mean %.3f ms, p99 %.3f ms\n",
		res.ReadMean.Milliseconds(), res.ReadP99.Milliseconds())
	fmt.Fprintf(stdout, "write:        mean %.3f ms, p99 %.3f ms\n",
		res.WriteMean.Milliseconds(), res.WriteP99.Milliseconds())
	if res.CRAID != nil {
		s := res.CRAID
		fmt.Fprintf(stdout, "hit ratio:    reads %.2f%%  writes %.2f%%\n",
			100*s.HitRatio(0), 100*s.HitRatio(1))
		fmt.Fprintf(stdout, "evictions:    %d (%.2f%% dirty)  copy-ins: %d blocks  writebacks: %d blocks\n",
			s.Evictions, 100*ratioOf(s.DirtyEvictions, s.Evictions), s.CopyIns, s.Writebacks)
	}
	rp := res.Replay
	fmt.Fprintf(stdout, "replay ring:  high water %d, reader stalls %d, replay stalls %d\n",
		rp.RingHighWater, rp.ReaderStalls, rp.ReplayStalls)
	if res.Fault != nil {
		f := res.Fault
		fmt.Fprintf(stdout, "faults:       %d disk failures, %d transients (%d retries, %d permanent), %d lost extents\n",
			f.Failures, f.Transients, f.Retries, f.Permanent, f.LostExtents)
		fmt.Fprintf(stdout, "degraded:     %d reads reconstructed (%d blocks, %d peer reads), %d writes degraded\n",
			f.DegradedReads, f.DegradedBlocks, f.PeerReads, f.DegradedWrites)
		if f.DegradedReads+f.DegradedWrites > 0 {
			fmt.Fprintf(stdout, "deg latency:  read mean %.3f ms p99 %.3f ms, write mean %.3f ms p99 %.3f ms\n",
				res.DegReadMean.Milliseconds(), res.DegReadP99.Milliseconds(),
				res.DegWriteMean.Milliseconds(), res.DegWriteP99.Milliseconds())
		}
		if f.RebuildRows > 0 || f.RebuildLostRows > 0 {
			fmt.Fprintf(stdout, "rebuild:      %d rows (%d blocks) in %.3f ms, %d rows lost, %d crash-restarted walks\n",
				f.RebuildRows, f.RebuildBlocks, res.RebuildDuration.Milliseconds(),
				f.RebuildLostRows, f.RebuildRestarts)
		}
		if f.Restarts > 0 {
			fmt.Fprintf(stdout, "crash:        %d restarts, %d mappings recovered from the dirty log\n",
				f.Restarts, f.RecoveredMappings)
		}
		if f.Upgrades > 0 {
			fmt.Fprintf(stdout, "expand:       %d upgrades, %d migrated, %d written back, %d invalidated, drain latency %.3f ms\n",
				f.Upgrades, f.ExpandMigrated, f.ExpandWriteback, f.ExpandInvalidated,
				f.UpgradeLatency().Milliseconds())
		}
	}
	fmt.Fprintf(stdout, "load balance: mean per-second cv %.3f\n", metrics.Mean(res.CVs))
	fmt.Fprintf(stdout, "sequential:   mean per-second fraction %.3f\n", metrics.Mean(res.SeqFracs))
	fmt.Fprintf(stdout, "queues:       mean %.2f, p99 %d, max %d; concurrent devices mean %.1f max %d\n",
		res.QueueMean, res.QueueP99, res.QueueMax, res.ConcMean, res.ConcMax)
	return nil
}

// checkSource rejects a flag given on the command line that the trace
// source ignores: a -file replay takes neither the preset's name nor
// its budget, and a preset replay reads no file. fs.Visit sees only the
// flags that were set, so a default never trips it.
func checkSource(fs *flag.FlagSet, file bool) (err error) {
	fileOnly := map[string]bool{"format": true, "volume": true, "dataset-gb": true, "pervolume": true}
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case file && (f.Name == "trace" || f.Name == "budget"):
			err = fmt.Errorf("-%s has no effect with -file, which replaces the preset workload", f.Name)
		case !file && fileOnly[f.Name]:
			err = fmt.Errorf("-%s needs -file", f.Name)
		}
	})
	return err
}

func ratioOf(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeResultFile writes the full result (a RunResult, or with
// -pervolume a []VolumeResult) as indented JSON to path, atomically
// (temp + rename) so a crashed run never leaves a torn file for
// downstream tooling to choke on.
func writeResultFile(path string, res any) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
