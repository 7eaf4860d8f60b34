package core

import (
	"fmt"
	"testing"

	"craid/internal/disk"
	"craid/internal/fault"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
)

// censusCheck holds, at every submission, the samples the target device
// takes of its array's census to a poll of the devices: the depth sample
// must be the target's QueueDepth(), the busy sample the number of
// devices whose Busy() is true. A device takes its samples in Submit,
// before the request changes its state, so a wrapper that polls on entry
// sees exactly the state sampled. The polled values go into histograms
// of their own, which the census's must equal after every submission —
// each submission adds one sample to each — and whose statistics
// QueueStats/ConcurrencyStats must report after the run.
type censusCheck struct {
	t            *testing.T
	arr          *Array
	depths, busy metrics.LatencyHist

	samples, rejected, max int
}

// polled is what a poll asks of a device model.
type polled interface {
	QueueDepth() int
	Busy() bool
}

// submit polls, hands r to d, and compares the census's samples.
func (c *censusCheck) submit(d disk.Device, r *disk.Request) {
	depth, busy := d.(polled).QueueDepth(), 0
	for _, dev := range c.arr.devices {
		if p, ok := dev.(polled); ok && p.Busy() {
			busy++
		}
	}
	c.depths.Add(sim.Time(depth))
	c.busy.Add(sim.Time(busy))
	if r.Reject {
		c.rejected++
	}
	d.Submit(r)
	if got := c.arr.census.QueueDepths(); !got.Equal(&c.depths) {
		c.t.Fatalf("submission %d at %v to %s: queue depths sampled %s, polling gives %s (depth %d now)",
			c.samples, c.arr.Eng.Now(), d.Name(), counts(got), counts(&c.depths), depth)
	}
	if got := c.arr.census.BusyCounts(); !got.Equal(&c.busy) {
		c.t.Fatalf("submission %d at %v to %s: busy counts sampled %s, asking each of the %d devices gives %s (%d now)",
			c.samples, c.arr.Eng.Now(), d.Name(), counts(got), len(c.arr.devices), counts(&c.busy), busy)
	}
	c.samples++
	c.max = max(c.max, busy)
}

// counts describes a histogram of counts (sample unit: the count).
func counts(h *metrics.LatencyHist) string {
	return fmt.Sprintf("n=%d mean=%d max=%d", h.Count(), h.Mean(), h.Max())
}

// drained checks what the census reports once the engine has drained:
// the statistics of the polled histograms; and that a poll finds no
// device busy.
func (c *censusCheck) drained() {
	c.t.Helper()
	check := func(name string, mean float64, p99, mx int64, h *metrics.LatencyHist) {
		c.t.Helper()
		if mean != float64(h.Mean()) || p99 != int64(h.Percentile(0.99)) || mx != int64(h.Max()) {
			c.t.Errorf("%s = %v, %d, %d; the polled histogram (%s) gives %v, %d, %d",
				name, mean, p99, mx, counts(h), float64(h.Mean()), int64(h.Percentile(0.99)), int64(h.Max()))
		}
	}
	mean, p99, mx := c.arr.QueueStats()
	check("QueueStats", mean, p99, mx, &c.depths)
	mean, p99, mx = c.arr.ConcurrencyStats()
	check("ConcurrencyStats", mean, p99, mx, &c.busy)
	for _, dev := range c.arr.devices {
		if p, ok := dev.(polled); ok && p.Busy() {
			c.t.Errorf("%s still busy after the engine drained", dev.Name())
		}
	}
}

// censusHDD and censusSSD are the real models with the check around
// Submit; embedding keeps what the array and the fault runtime look for
// (the census join, queue state).
type censusHDD struct {
	*disk.HDD
	c *censusCheck
}

func (d censusHDD) Submit(r *disk.Request) { d.c.submit(d.HDD, r) }

type censusSSD struct {
	*disk.SSD
	c *censusCheck
}

func (d censusSSD) Submit(r *disk.Request) { d.c.submit(d.SSD, r) }

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
func (c *censusCheck) censusHDDs(eng *sim.Engine, first, n int) []disk.Device {
	out := make([]disk.Device, n)
	for i := range out {
		out[i] = censusHDD{smallCheetah(eng, first+i, 96), c}
	}
	return out
}

// censusSSDs builds n small MSR SSDs.
func (c *censusCheck) censusSSDs(eng *sim.Engine, first, n int) []disk.Device {
	out := make([]disk.Device, n)
	for i := range out {
		cfg := disk.MSRSSDConfig(fmt.Sprintf("ssd%d", first+i))
		cfg.CapacityBlocks = 100000
		out[i] = censusSSD{disk.NewSSD(eng, cfg), c}
	}
	return out
}

// censusCRAID assembles a 5-HDD shared-cache CRAID-5 (ssds == 0) or a
// CRAID-5ssd whose P_C lives on dedicated SSDs, every device wrapped.
func censusCRAID(t *testing.T, eng *sim.Engine, ssds int) (*CRAID, *Array, *censusCheck) {
	t.Helper()
	const hdds = 5
	c := &censusCheck{t: t}
	devs := append(c.censusHDDs(eng, 0, hdds), c.censusSSDs(eng, hdds, ssds)...)
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

// exercised fails the test unless the run compared enough submissions
// with enough devices busy at once.
func (c *censusCheck) exercised() {
	c.t.Helper()
	if c.samples < 1000 || c.max < 2 {
		c.t.Fatalf("compared %d submissions, at most %d devices busy: the run exercised nothing", c.samples, c.max)
	}
}

// ios sums the requests devices [from, to) served.
func ios(arr *Array, from, to int) (n int64) {
	for i := from; i < to; i++ {
		s := arr.Device(i).Stats()
		n += s.Reads + s.Writes
	}
	return n
}

// TestBusyCountMatchesCensusHDD: pushing devices only, with the write
// cache absorbing, stalling and destaging (busy without a request in
// service).
func TestBusyCountMatchesCensusHDD(t *testing.T) {
	eng := sim.NewEngine()
	c, _, census := censusCRAID(t, eng, 0)
	replayAll(t, eng, c, pacedWorkload(21, 1000, 400*sim.Microsecond))
	census.exercised()
	census.drained()
}

// TestBusyCountMatchesCensusMixed: CRAID-5ssd — HDDs push their flips,
// SSDs (busy by the clock) report when their spells end, and the sum
// must still be the poll.
func TestBusyCountMatchesCensusMixed(t *testing.T) {
	eng := sim.NewEngine()
	c, arr, census := censusCRAID(t, eng, 2)
	replayAll(t, eng, c, pacedWorkload(22, 1000, 400*sim.Microsecond))
	census.exercised()
	census.drained()
	if ios(arr, 5, 7) == 0 {
		t.Fatal("the SSD cache partition served no I/O")
	}
}

// TestBusyCountMatchesCensusFaults runs the census check through fault
// plans on the 5-HDD CRAID-5: a device that fails while busy, its
// rebuild, a crash-restart, and five HDDs added mid-run by expand@T
// (wired through AddDevices) that then carry P_C traffic; and two SSDs
// added by expand@T — clocked devices joining the census mid-run — one
// of which fails while its retries are backing off. Either failed
// device's rejected submissions are sampled too.
func TestBusyCountMatchesCensusFaults(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		ssds       bool // the factory builds SSDs
		rebuild    bool // the plan rebuilds the failed device
		added      int
		failed     int      // the device the plan fails
		busyAt     sim.Time // when it must be busy, 0 for no check
	}{
		{name: "hdds", spec: "seed=9;fail:2@40ms;rebuild:2@80ms,rate=64;crash@160ms;expand@200ms,disks=5",
			rebuild: true, added: 5, failed: 2, busyAt: 40 * sim.Millisecond},
		{name: "ssds", spec: "seed=9;expand@20ms,disks=2;transient:6@40ms-120ms,rate=0.3;fail:6@100ms",
			ssds: true, added: 2, failed: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.ParsePlan(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngine()
			c, arr, census := censusCRAID(t, eng, 0)
			busyAtFail := false
			if tc.busyAt > 0 { // scheduled ahead of the plan's fail event
				eng.Schedule(tc.busyAt, func() { busyAtFail = arr.Device(tc.failed).(polled).Busy() })
			}
			rt, err := InstallFaults(arr, c, plan)
			if err != nil {
				t.Fatal(err)
			}
			rt.SetDeviceFactory(func(n int) []disk.Device {
				if tc.ssds {
					return census.censusSSDs(eng, arr.Devices(), n)
				}
				return census.censusHDDs(eng, arr.Devices(), n)
			})
			replayAll(t, eng, c, pacedWorkload(23, 1000, 400*sim.Microsecond))
			if err := rt.Err(); err != nil {
				t.Fatal(err)
			}
			census.exercised()
			census.drained()
			if tc.busyAt > 0 && !busyAtFail {
				t.Fatalf("device %d was idle when it failed; the scenario wants it busy", tc.failed)
			}
			if fs := rt.Stats(); fs.Failures != 1 || fs.Upgrades != 1 || tc.rebuild && fs.RebuildRows == 0 {
				t.Fatalf("plan did not run in full: %+v", *fs)
			}
			if arr.Devices() != 5+tc.added {
				t.Fatalf("%d devices after the upgrade, want %d", arr.Devices(), 5+tc.added)
			}
			if ios(arr, 5, 5+tc.added) == 0 {
				t.Fatal("the added devices served no I/O, so their transitions went untested")
			}
			// Every rejection was a submission the check compared.
			var rejected int64
			for i := 0; i < arr.Devices(); i++ {
				rejected += arr.Device(i).Stats().Rejected
			}
			if arr.Device(tc.failed).Stats().Rejected == 0 || int64(census.rejected) != rejected {
				t.Fatalf("device %d rejected %d submissions, all devices %d, the check compared %d; want some, all compared",
					tc.failed, arr.Device(tc.failed).Stats().Rejected, rejected, census.rejected)
			}
			t.Logf("%d submissions compared, %d rejected, at most %d devices busy", census.samples, census.rejected, census.max)
		})
	}
}
