// Webserver: replay the webusers workload (a university web server;
// write-dominated, small working set) against CRAID and watch the I/O
// monitor learn the hot set over the week: hourly hit ratio climbing
// as the cache partition warms, then staying high as the working set
// drifts day to day.
//
// Run with: go run ./examples/webserver
package main

import (
	"fmt"
	"io"
	"strings"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/workload"
)

func main() {
	params, err := workload.Preset("webusers")
	if err != nil {
		panic(err)
	}
	gen := workload.New(params) // full paper scale: webusers is small

	eng := sim.NewEngine()
	hcfg := disk.CheetahConfig("hdd")
	var devs []disk.Device
	for i := 0; i < experiments.TestbedDisks; i++ {
		c := hcfg
		c.Name = fmt.Sprintf("hdd%d", i)
		devs = append(devs, disk.NewHDD(eng, c))
	}
	arr := core.NewArray(eng, devs)
	disks := make([]int, experiments.TestbedDisks)
	for i := range disks {
		disks[i] = i
	}

	const pcPerDisk = 16 * 1024 // 64 MiB per disk
	inner := raid.NewRAID5(experiments.TestbedDisks, experiments.TestbedParityGroup,
		hcfg.CapacityBlocks-pcPerDisk, experiments.TestbedStripeUnit)
	archive := raid.NewSpreadLayout(inner, gen.DatasetBlocks())
	craid, err := core.NewCRAID(arr, core.Config{
		Policy:       "WLRU",
		CachePerDisk: pcPerDisk,
	}, true, disks, 0, archive, disks, pcPerDisk)
	if err != nil {
		panic(err)
	}

	fmt.Println("webusers on CRAID-5: hourly hit ratio as the monitor learns the hot set")
	fmt.Printf("%-6s %-8s %-9s %s\n", "hour", "hits", "accesses", "hit ratio")

	var lastHits, lastAccesses int64
	hour := sim.Hour
	nextReport := hour
	report := func() {
		s := craid.Stats()
		hits := s.ReadHits + s.WriteHits
		accesses := s.ReadBlocks + s.WriteBlocks
		dh, da := hits-lastHits, accesses-lastAccesses
		lastHits, lastAccesses = hits, accesses
		if da == 0 {
			return
		}
		ratio := float64(dh) / float64(da)
		fmt.Printf("%-6d %-8d %-9d %5.1f%% %s\n",
			int(eng.Now()/hour), dh, da, 100*ratio, strings.Repeat("#", int(ratio*40)))
	}

	for {
		rec, err := gen.Next()
		if err == io.EOF {
			break
		}
		for rec.Time >= nextReport {
			eng.RunUntil(nextReport)
			report()
			nextReport += 6 * hour
		}
		eng.RunUntil(rec.Time)
		craid.Submit(rec, nil)
	}
	eng.Run()
	report()

	s := craid.Stats()
	fmt.Printf("\nweek total: %.1f%% hit ratio, %d evictions (%.1f%% dirty), %d bytes of mappings\n",
		100*s.OverallHitRatio(), s.Evictions,
		100*float64(s.DirtyEvictions)/float64(max(s.Evictions, 1)), craid.MappingBytes())
}
