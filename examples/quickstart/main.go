// Quickstart: build a small CRAID-5 array on simulated disks, push I/O
// through it, expand it online, and watch the monitor statistics.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"craid/internal/core"
	"craid/internal/disk"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
)

func main() {
	// One simulation engine drives everything.
	eng := sim.NewEngine()

	// Eight small hard disks.
	var devs []disk.Device
	for i := 0; i < 8; i++ {
		cfg := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
		cfg.CapacityBlocks = 1 << 18 // 1 GiB each keeps the demo snappy
		devs = append(devs, disk.NewHDD(eng, cfg))
	}
	arr := core.NewArray(eng, devs)
	disks := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// CRAID: a 2048-block cache partition per disk at the front of the
	// disks, and a RAID-5 archive behind it.
	const pcPerDisk = 2048
	archive := raid.NewRAID5(8, 4, 1<<18-pcPerDisk, 32)
	craid, err := core.NewCRAID(arr, core.Config{
		Policy:       "WLRU",
		CachePerDisk: pcPerDisk,
		ParityGroup:  4,
		StripeUnit:   32,
	}, true, disks, 0, archive, disks, pcPerDisk)
	if err != nil {
		panic(err)
	}

	fmt.Printf("volume: %d blocks (%.1f GiB), cache partition: %d blocks\n",
		craid.DataBlocks(), float64(craid.DataBlocks())*disk.BlockSize/(1<<30),
		craid.CacheDataBlocks())

	// A toy workload: a hot region accessed repeatedly plus a cold scan.
	submit := func(op disk.Op, block, count int64) {
		craid.Submit(trace.Record{Time: eng.Now(), Op: op, Block: block, Count: count}, nil)
		eng.Run()
	}
	for round := 0; round < 50; round++ {
		for b := int64(0); b < 60; b++ {
			submit(disk.OpRead, 100_000+b*8, 8) // hot reads
		}
		submit(disk.OpWrite, 100_000+int64(round%60)*8, 8) // hot writes
		submit(disk.OpRead, int64(round)*4096, 8)          // cold scan
	}

	s := craid.Stats()
	fmt.Printf("after %d block reads / %d block writes:\n", s.ReadBlocks, s.WriteBlocks)
	fmt.Printf("  read hit ratio:  %.1f%%\n", 100*s.HitRatio(disk.OpRead))
	fmt.Printf("  write hit ratio: %.1f%%\n", 100*s.HitRatio(disk.OpWrite))
	fmt.Printf("  mean read time:  %.3f ms\n", craid.ReadLatency().Mean().Milliseconds())
	fmt.Printf("  mean write time: %.3f ms\n", craid.WriteLatency().Mean().Milliseconds())
	fmt.Printf("  mapping cache:   %d bytes\n", craid.MappingBytes())

	// Online upgrade: add two disks. Only the cache partition is
	// rebuilt; the archive is untouched.
	fmt.Println("\nexpanding 8 → 10 disks...")
	var newDevs []disk.Device
	for i := 8; i < 10; i++ {
		cfg := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
		cfg.CapacityBlocks = 1 << 18
		newDevs = append(newDevs, disk.NewHDD(eng, cfg))
	}
	st := craid.Expand(newDevs, false, nil)
	eng.Run()
	fmt.Printf("  invalidated %d cached blocks, wrote back %d dirty blocks\n",
		st.Invalidated, st.DirtyWriteback)
	fmt.Printf("  cache partition now spans %d disks (%d blocks)\n",
		arr.Devices(), craid.CacheDataBlocks())

	// The hot set re-fills onto all 10 disks as soon as it is touched.
	for round := 0; round < 10; round++ {
		for b := int64(0); b < 60; b++ {
			submit(disk.OpRead, 100_000+b*8, 8)
		}
	}
	for i := 8; i < 10; i++ {
		st := arr.Device(i).Stats()
		fmt.Printf("  new disk %d: %d reads, %d writes after refill\n", i, st.Reads, st.Writes)
	}
}
