package disk

import (
	"craid/internal/fastdiv"
	"craid/internal/sim"
)

// SSDConfig describes the idealized SSD model. It mirrors the Microsoft
// Research DiskSim SSD extension the paper uses: per-page read/program
// latencies, channel-level parallelism, and — deliberately — no
// read/write cache (the paper observes DiskSim's SSD model "does not
// simulate a read/write cache", which shapes its Table 5 and Fig. 6
// results, so the omission is part of the model).
type SSDConfig struct {
	Name           string
	CapacityBlocks int64
	Channels       int      // independent channels; block i lives on channel i % Channels
	ReadLatency    sim.Time // per 4 KiB page
	WriteLatency   sim.Time // per 4 KiB page
	ControllerOver sim.Time // per-request overhead
}

// MSRSSDConfig returns parameters matching the idealized MSR model as
// commonly configured: 25 µs page reads, 200 µs page programs, four
// channels, 32 GB.
func MSRSSDConfig(name string) SSDConfig {
	return SSDConfig{
		Name:           name,
		CapacityBlocks: 32 * 1000 * 1000 * 1000 / BlockSize,
		Channels:       4,
		ReadLatency:    25 * sim.Microsecond,
		WriteLatency:   200 * sim.Microsecond,
		ControllerOver: 20 * sim.Microsecond,
	}
}

// SSD is an idealized flash device: each channel is an independent FIFO
// server; a request occupies the channels its blocks map to, one page
// time per block, with no caching.
type SSD struct {
	eng   *sim.Engine
	cfg   SSDConfig
	stats Stats

	// chanFree[i] is the simulated time at which channel i next becomes
	// idle. FIFO per channel; requests reserve all their channels.
	chanFree []sim.Time

	// busyUntil is the latest chanFree: some channel is busy exactly
	// while busyUntil > now.
	busyUntil sim.Time

	// census, when joined, is told each later busyUntil; slot is the
	// SSD's index among the census's clocked devices.
	census *Census
	slot   int

	perChannels fastdiv.Divisor // by cfg.Channels
}

// NewSSD builds an SSD from cfg, attached to eng.
func NewSSD(eng *sim.Engine, cfg SSDConfig) *SSD {
	if cfg.Channels <= 0 || cfg.CapacityBlocks <= 0 {
		panic("disk: invalid SSD config")
	}
	return &SSD{
		eng:         eng,
		cfg:         cfg,
		chanFree:    make([]sim.Time, cfg.Channels),
		perChannels: fastdiv.New(int64(cfg.Channels)),
	}
}

// extraPage is 1 if channel ch is among the extra channels that follow
// first round the channels ring, else 0.
func extraPage(ch, first, extra, channels int64) int64 {
	after := ch - first // how far round the ring ch comes after first
	if after < 0 {
		after += channels
	}
	if after < extra {
		return 1
	}
	return 0
}

// CapacityBlocks implements Device.
func (d *SSD) CapacityBlocks() int64 { return d.cfg.CapacityBlocks }

// Name implements Device.
func (d *SSD) Name() string { return d.cfg.Name }

// Stats implements Device.
func (d *SSD) Stats() *Stats { return &d.stats }

// QueueDepth reports how many requests are waiting or in flight,
// approximated by the number of channels busy beyond "now".
func (d *SSD) QueueDepth() int {
	now := d.eng.Now()
	n := 0
	for _, t := range d.chanFree {
		if t > now {
			n++
		}
	}
	return n
}

// Busy reports whether any channel is busy.
func (d *SSD) Busy() bool { return d.busyUntil > d.eng.Now() }

// JoinCensus implements CensusTaker. The SSD's busy spell runs out with
// the clock, so it tells the census each time it extends the spell.
func (d *SSD) JoinCensus(c *Census) {
	d.census, d.slot = c, c.clock(d.busyUntil)
}

// Submit implements Device. Blocks are spread over channels
// round-robin; the request completes when its slowest channel finishes.
func (d *SSD) Submit(r *Request) {
	checkRange(r, d.cfg.CapacityBlocks, d.cfg.Name)
	now := d.eng.Now()
	if c := d.census; c != nil {
		c.sample(d.QueueDepth(), now)
	}

	if r.Reject {
		d.stats.Rejected++
		complete(d.eng, d.cfg.ControllerOver, r.Done)
		return
	}
	per := d.cfg.ReadLatency
	if r.Op == OpWrite {
		per = d.cfg.WriteLatency
	}
	per = scaled(per, r.LatencyX)

	// Pages per channel: consecutive blocks go round the channels, so
	// each gets Count/Channels and the Count%Channels channels from the
	// first block's on get one more.
	each, extra := d.perChannels.DivMod(r.Count)
	_, first := d.perChannels.DivMod(r.Block)

	var latest sim.Time
	for ch := range d.chanFree {
		n := each + extraPage(int64(ch), first, extra, int64(len(d.chanFree)))
		if n == 0 {
			continue
		}
		start := d.chanFree[ch]
		if start < now {
			start = now
		}
		end := start + sim.Time(n)*per
		d.chanFree[ch] = end
		if end > latest {
			latest = end
		}
	}
	if latest > d.busyUntil {
		d.busyUntil = latest
		if c := d.census; c != nil {
			c.extend(d.slot, latest, now)
		}
	}
	finish := latest + d.cfg.ControllerOver
	d.stats.BusyTime += finish - now
	d.stats.count(r.Op, r.Count, r.Err)
	complete(d.eng, finish-now, r.Done)
}
