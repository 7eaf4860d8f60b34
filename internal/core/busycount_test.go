package core

import (
	"fmt"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/raid"
	"craid/internal/sim"
)

// busyCensus checks, at every submission, the array's event-driven
// busy-device count against the census it replaced: ask every device.
// Array.issue samples the count immediately before handing the request
// to the device, so a device wrapper that compares on entry to Submit
// sees exactly the state issue sampled. ConcMean/ConcP99/ConcMax feed
// RunResult, so a drift of one would change a run's digest.
type busyCensus struct {
	t       *testing.T
	arr     *Array
	samples int
	max     int
}

func (c *busyCensus) compare() {
	census := 0
	for _, d := range c.arr.devices {
		if q, ok := d.(queuer); ok && q.Busy() {
			census++
		}
	}
	if got := c.arr.busyDevices(); got != census {
		c.t.Fatalf("submission %d at %v: array counts %d busy devices, asking each of the %d finds %d",
			c.samples, c.arr.Eng.Now(), got, len(c.arr.devices), census)
	}
	c.samples++
	if census > c.max {
		c.max = census
	}
}

// censusHDD and censusSSD are the real models with the comparison in
// front of Submit; embedding keeps every optional interface the array
// and the fault runtime look for (queue state, BusyCounter, Faultable).
type censusHDD struct {
	*disk.HDD
	c *busyCensus
}

func (d censusHDD) Submit(r *disk.Request) { d.c.compare(); d.HDD.Submit(r) }

type censusSSD struct {
	*disk.SSD
	c *busyCensus
}

func (d censusSSD) Submit(r *disk.Request) { d.c.compare(); d.SSD.Submit(r) }

// smallCheetah is the HDD the HDD-backed core tests share: the Cheetah
// model cut to 100000 blocks, with the given write-cache size.
func smallCheetah(eng *sim.Engine, i, writeCacheBlocks int) *disk.HDD {
	cfg := disk.CheetahConfig(fmt.Sprintf("hdd%d", i))
	cfg.CapacityBlocks = 100000
	cfg.WriteCacheBlocks = writeCacheBlocks
	return disk.NewHDD(eng, cfg)
}

// fiveHDDCRAID is the shared-cache CRAID-5 those tests run over devices
// 0-4 of arr: 64 P_C blocks per disk (256 of data), a 16384-block
// RAID-5 archive behind them.
func fiveHDDCRAID(arr *Array) *CRAID {
	disks := []int{0, 1, 2, 3, 4}
	return mustCRAID(arr, Config{Policy: "WLRU", CachePerDisk: 64, ParityGroup: 5, StripeUnit: 4},
		true, disks, 0, raid.NewRAID5(5, 5, 4096, 4), disks, 64)
}

// censusHDDs builds n small Cheetahs with a write cache tight enough
// that the workloads below stall on it and destage constantly.
func (c *busyCensus) censusHDDs(eng *sim.Engine, first, n int) []disk.Device {
	out := make([]disk.Device, n)
	for i := range out {
		out[i] = censusHDD{smallCheetah(eng, first+i, 96), c}
	}
	return out
}

// censusCRAID assembles a 5-HDD shared-cache CRAID-5 (ssds == 0) or a
// CRAID-5ssd whose P_C lives on dedicated SSDs, every device wrapped.
func censusCRAID(t *testing.T, eng *sim.Engine, ssds int) (*CRAID, *Array, *busyCensus) {
	t.Helper()
	const hdds = 5
	c := &busyCensus{t: t}
	devs := c.censusHDDs(eng, 0, hdds)
	for i := 0; i < ssds; i++ {
		cfg := disk.MSRSSDConfig(fmt.Sprintf("ssd%d", i))
		cfg.CapacityBlocks = 100000
		devs = append(devs, censusSSD{disk.NewSSD(eng, cfg), c})
	}
	arr := NewArray(eng, devs)
	c.arr = arr
	if ssds == 0 {
		return fiveHDDCRAID(arr), arr, c
	}
	ssdIdx := make([]int, ssds)
	for i := range ssdIdx {
		ssdIdx[i] = hdds + i
	}
	cfg := Config{Policy: "WLRU", CachePerDisk: 64 * hdds / int64(ssds), ParityGroup: ssds, StripeUnit: 4}
	hddIdx := []int{0, 1, 2, 3, 4}
	return mustCRAID(arr, cfg, false, ssdIdx, 0, raid.NewRAID5(hdds, hdds, 4096, 4), hddIdx, 0), arr, c
}

// TestBusyCountMatchesCensusHDD: pushed devices only, with the write
// cache absorbing, stalling and destaging (busy without a request in
// service).
func TestBusyCountMatchesCensusHDD(t *testing.T) {
	eng := sim.NewEngine()
	c, arr, census := censusCRAID(t, eng, 0)
	replayAll(t, eng, c, pacedWorkload(21, 1000, 400*sim.Microsecond))
	if census.samples < 1000 || census.max < 2 {
		t.Fatalf("compared %d submissions, at most %d devices busy: the run exercised nothing", census.samples, census.max)
	}
	if len(arr.polled) != 0 {
		t.Fatalf("%d devices polled on an all-HDD array, want 0", len(arr.polled))
	}
	if got := arr.busyDevices(); got != 0 {
		t.Fatalf("%d devices still counted busy after the engine drained", got)
	}
}

// TestBusyCountMatchesCensusMixed: CRAID-5ssd — HDDs push, SSDs (busy
// by the clock) are polled, and the sum must still be the census.
func TestBusyCountMatchesCensusMixed(t *testing.T) {
	eng := sim.NewEngine()
	c, arr, census := censusCRAID(t, eng, 2)
	replayAll(t, eng, c, pacedWorkload(22, 1000, 400*sim.Microsecond))
	if census.samples < 1000 || census.max < 2 {
		t.Fatalf("compared %d submissions, at most %d devices busy: the run exercised nothing", census.samples, census.max)
	}
	if len(arr.polled) != 2 {
		t.Fatalf("%d devices polled, want the 2 SSDs", len(arr.polled))
	}
	var ssdIOs int64
	for i := 5; i < 7; i++ {
		s := arr.Device(i).Stats()
		ssdIOs += s.Reads + s.Writes
	}
	if ssdIOs == 0 {
		t.Fatal("the SSD cache partition served no I/O")
	}
}

// TestBusyCountMatchesCensusFaults: a device that fails while busy, its
// rebuild, a crash-restart, and five devices added mid-run by expand@T
// (wired through AddDevices) that then carry P_C traffic.
func TestBusyCountMatchesCensusFaults(t *testing.T) {
	const spec = "seed=9;fail:2@40ms;rebuild:2@80ms,rate=64;crash@160ms;expand@200ms,disks=5"
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	c, arr, census := censusCRAID(t, eng, 0)
	busyAtFail := false
	eng.Schedule(40*sim.Millisecond, func() { busyAtFail = arr.Device(2).(queuer).Busy() }) // queued ahead of the plan's fail event
	rt, err := InstallFaults(arr, c, plan)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetDeviceFactory(func(n int) []disk.Device { return census.censusHDDs(eng, arr.Devices(), n) })
	replayAll(t, eng, c, pacedWorkload(23, 1000, 400*sim.Microsecond))
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	if !busyAtFail {
		t.Fatal("device 2 was idle when it failed; the scenario wants it busy")
	}
	if fs := rt.Stats(); fs.Failures != 1 || fs.RebuildRows == 0 || fs.Upgrades != 1 {
		t.Fatalf("plan did not run in full: %+v", *fs)
	}
	if arr.Devices() != 10 || len(arr.polled) != 0 {
		t.Fatalf("%d devices (%d polled) after the upgrade, want 10 (0)", arr.Devices(), len(arr.polled))
	}
	var added int64
	for i := 5; i < 10; i++ {
		s := arr.Device(i).Stats()
		added += s.Reads + s.Writes
	}
	if added == 0 {
		t.Fatal("the added devices served no I/O, so their transitions went untested")
	}
	if got := arr.busyDevices(); got != 0 {
		t.Fatalf("%d devices still counted busy after the engine drained", got)
	}
}
