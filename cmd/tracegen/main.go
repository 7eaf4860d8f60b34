// Command tracegen generates the calibrated synthetic block traces
// (the stand-ins for the paper's seven workloads) in the native text
// format, for inspection or replay with craidsim.
//
// Usage:
//
//	tracegen -trace wdev -scale 0.1 -out wdev.trace
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"craid/internal/sim"
	"craid/internal/trace"
	"craid/internal/workload"
)

func main() {
	name := flag.String("trace", "", "preset workload name")
	scale := flag.Float64("scale", 1.0, "volume scale (1.0 = paper scale)")
	hours := flag.Float64("hours", 0, "override duration in hours (0 = full week)")
	out := flag.String("out", "-", "output file ('-' = stdout)")
	list := flag.Bool("list", false, "list preset workloads and exit")
	bursty := flag.Bool("bursty", false, "bursty, partially sequential arrivals")
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %9s %9s %7s %8s\n", "name", "readGB", "writeGB", "top20%", "overlap")
		for _, p := range workload.Presets() {
			fmt.Printf("%-12s %9.2f %9.2f %6.1f%% %7.0f%%\n",
				p.Name, p.ReadGB, p.WriteGB, 100*p.Top20Share, 100*p.DailyOverlap)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -trace required (see -list)")
		os.Exit(2)
	}
	p, err := workload.Preset(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	p = p.Scaled(*scale)
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	if *hours > 0 {
		p = p.WithDuration(sim.Time(*hours * float64(sim.Hour)))
	}
	if *bursty {
		p = p.WithBursts(12, 300*sim.Microsecond, 0.4)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	gen := workload.New(p)
	tw := trace.NewWriter(w)
	fmt.Fprintf(w, "# %s scale=%g dataset_blocks=%d\n", p.Name, *scale, gen.DatasetBlocks())
	var n int64
	for {
		rec, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		if err := tw.Write(rec); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		n++
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records\n", n)
}
