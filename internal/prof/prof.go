// Package prof is the -cpuprofile/-memprofile plumbing the commands
// share, so performance PRs can attach before/after pprof evidence
// gathered from exactly the workload a command runs.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile and -memprofile on fs. The returned
// func, called once fs is parsed, starts the profiles the flags ask for.
func Flags(fs *flag.FlagSet) (start func() (stop func() error, err error)) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	mem := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	return func() (func() error, error) { return startProfiles(*cpu, *mem) }
}

// startProfiles begins CPU profiling into cpuPath and arms an
// allocation profile for memPath; an empty path skips that profile. The
// returned stop func ends the CPU profile and writes the heap profile.
// Call it exactly once, and before os.Exit (which skips deferred calls).
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile %s: %w", cpuPath, err)
		}
	}
	return func() error {
		var cpuErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuErr = cpuFile.Close()
		}
		if memPath == "" {
			return cpuErr
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile %s: %w", memPath, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return cpuErr
	}, nil
}
