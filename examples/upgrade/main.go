// Upgrade: the headline act — an online array expansion under load.
//
// Part 1 compares the migration volume of CRAID against restriping
// baselines over the paper's 10→50 disk schedule.
//
// Part 2 performs a live expansion: a CRAID array serving a wdev-like
// workload grows mid-week; the example reports what the upgrade cost
// (dirty write-backs, invalidations) and shows the new disks absorbing
// I/O immediately, while the archive partition never moves.
//
// Run with: go run ./examples/upgrade
package main

import (
	"fmt"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/migrate"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/workload"
)

func main() {
	part1()
	part2()
}

func part1() {
	fmt.Println("Part 1: blocks moved during upgrades, 10 → 50 disks (+30% steps)")
	fmt.Printf("%-11s %13s %10s\n", "strategy", "total moved", "final cv")
	rows, err := experiments.MigrationAblation(0.0128) // paper's largest P_C
	if err != nil {
		panic(err)
	}
	for _, row := range rows {
		fmt.Printf("%-11s %12.1f%% %10.4f\n", row.Strategy, 100*row.TotalFrac, row.FinalCV)
	}
	fmt.Println()
	_ = migrate.Names // see internal/migrate for the strategy models
}

func part2() {
	fmt.Println("Part 2: live online expansion, 10 → 13 disks, wdev-like workload")

	params, err := workload.Preset("wdev")
	if err != nil {
		panic(err)
	}
	params = params.Scaled(0.25).WithDuration(48 * sim.Hour)
	gen := workload.New(params)

	eng := sim.NewEngine()
	newHDD := func(i int) disk.Device {
		c := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
		c.CapacityBlocks /= 4 // match the scaled workload
		return disk.NewHDD(eng, c)
	}
	var devs []disk.Device
	for i := 0; i < 10; i++ {
		devs = append(devs, newHDD(i))
	}
	arr := core.NewArray(eng, devs)
	disks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	diskCap := devs[0].CapacityBlocks()
	pcPerDisk := diskCap / 100
	inner := raid.NewRAID5(10, 10, diskCap-pcPerDisk, 32)
	archive := raid.NewSpreadLayout(inner, gen.DatasetBlocks())
	craid, err := core.NewCRAID(arr, core.Config{CachePerDisk: pcPerDisk},
		true, disks, 0, archive, disks, pcPerDisk)
	if err != nil {
		panic(err)
	}

	// Replay the first day, expand, replay the second day: the
	// expansion is an engine event at t=24h, scheduled before the replay.
	eng.Schedule(24*sim.Hour, func() {
		before := craid.Stats().Writebacks
		upgrade := craid.Expand([]disk.Device{newHDD(10), newHDD(11), newHDD(12)}, false, nil)
		fmt.Printf("  t=24h: expanded to %d disks: %d mappings invalidated, %d dirty blocks written back (%d total writebacks so far)\n",
			arr.Devices(), upgrade.Invalidated, upgrade.DirtyWriteback,
			before+upgrade.DirtyWriteback)
	})
	if _, err := core.Replay(eng, craid, gen); err != nil {
		panic(err)
	}

	fmt.Printf("  after day 2: read hit ratio %.1f%%, mean read %.3f ms\n",
		100*craid.Stats().HitRatio(disk.OpRead), craid.ReadLatency().Mean().Milliseconds())
	for i := 10; i < 13; i++ {
		s := arr.Device(i).Stats()
		fmt.Printf("  new disk %d handled %d reads / %d writes on day 2 (archive untouched: it lives on disks 0-9)\n",
			i, s.Reads, s.Writes)
	}
}
