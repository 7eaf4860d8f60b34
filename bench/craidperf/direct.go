package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"craid/internal/cache"
	"craid/internal/disk"
	"craid/internal/experiments"
	"craid/internal/mapcache"
	"craid/internal/metrics"
	"craid/internal/raid"
	"craid/internal/sim"
	"craid/internal/trace"
	"craid/internal/workload"
)

// Direct timers call each layer's public functions on the workload's own
// record streams, one timer around each loop, outside the simulator.
// They say what a layer costs per operation; the profile says how much
// of a record's time the layer takes in place. A layer the workload's
// cells never enter reports 0.

// directPasses is how often each timed loop runs; the median pass is
// reported.
const directPasses = 3

// timing is one pass of a direct timer: the time its loop took, the
// operations it did and up to two counts the loop made on the way.
type timing struct {
	d    time.Duration
	ops  int64
	a, b int64
}

func (t *timing) add(u timing) {
	t.d += u.d
	t.ops += u.ops
	t.a += u.a
	t.b += u.b
}

func (t timing) nsPerOp() float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(t.d.Nanoseconds()) / float64(t.ops)
}

// direct runs the timers of one traced run. The first error sticks and
// turns every later timer into a no-op.
type direct struct {
	tr   *tracer
	root int
	err  error
}

// timed runs pass directPasses times under one span and returns the
// median pass by cost per operation.
func (d *direct) timed(layer string, pass func() (timing, error)) timing {
	if d.err != nil {
		return timing{}
	}
	id := d.tr.begin("direct."+layer, d.root)
	defer d.tr.end(id)
	var passes []timing
	for i := 0; i < directPasses; i++ {
		t, err := pass()
		if err != nil {
			d.err = fmt.Errorf("direct.%s: %w", layer, err)
			return timing{}
		}
		passes = append(passes, t)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].nsPerOp() < passes[j].nsPerOp() })
	return passes[len(passes)/2]
}

// drain pulls a reader dry into recs, wrapping addresses into the
// dataset the way trace.Clamp does for experiments.Run.
func drain(rd trace.Reader, dataset int64, recs []trace.Record) ([]trace.Record, error) {
	for {
		r, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, err
		}
		if r.Count > dataset {
			r.Count = dataset
		}
		r.Block %= dataset
		if r.Block+r.Count > dataset {
			r.Block = dataset - r.Count
		}
		recs = append(recs, r)
	}
}

// loaded is a stream held in memory with the shape numbers the device
// timers need.
type loaded struct {
	recs       []trace.Record
	meanBlocks int64
	writeFrac  float64
}

func shapeOf(recs []trace.Record) loaded {
	l := loaded{recs: recs, meanBlocks: 1}
	var blocks, writes int64
	for _, r := range recs {
		blocks += r.Count
		if r.Op == disk.OpWrite {
			writes++
		}
	}
	if n := int64(len(recs)); n > 0 {
		l.meanBlocks = (blocks + n/2) / n
		l.writeFrac = float64(writes) / float64(n)
	}
	return l
}

// directTimers fills out with every direct per-layer metric of the
// workload. perRecordEvents is the event count per record the timed
// rounds measured.
func directTimers(in *inputs, e env, perRecordEvents float64, tr *tracer, root int, out map[string]float64) error {
	d := &direct{tr: tr, root: root}
	timedDevices := !in.cells[0].cfg.Instant

	// trace / workload: hold each stream in memory, timing its source.
	streams := make(map[*stream]loaded, len(in.streams))
	var gen, parse timing
	var parsedBytes int64
	for _, s := range in.streams {
		var recs []trace.Record
		if s.file == "" {
			gen.add(d.timed("workload", func() (timing, error) {
				g := workload.New(s.params)
				t0 := time.Now()
				var err error
				recs, err = drain(g, s.dataset, recs[:0])
				return timing{d: time.Since(t0), ops: int64(len(recs))}, err
			}))
		} else {
			data, err := os.ReadFile(s.file)
			if err != nil {
				return err
			}
			parsedBytes += int64(len(data))
			parse.add(d.timed("trace", func() (timing, error) {
				rd := trace.NewMSRReader(bytes.NewReader(data))
				t0 := time.Now()
				var err error
				recs, err = drain(rd, s.dataset, recs[:0])
				return timing{d: time.Since(t0), ops: int64(len(recs))}, err
			}))
		}
		if d.err == nil && int64(len(recs)) != s.records {
			return fmt.Errorf("stream %s: drained %d records, set-up counted %d", s.name, len(recs), s.records)
		}
		streams[s] = shapeOf(recs)
	}
	out["workload.gen_ns_per_record"] = gen.nsPerOp()
	out["trace.parse_ns_per_record"] = parse.nsPerOp()
	out["trace.parse_mb_per_s"] = 0
	if parse.d > 0 {
		out["trace.parse_mb_per_s"] = float64(parsedBytes) / 1e6 / parse.d.Seconds()
	}

	// mapcache / cache: one loop per monitored cell. Cells that share a
	// stream and a capacity (the five policies of one preset) would run
	// the same mapcache loop, so that one runs once per such pair.
	var mc, pc timing
	type mcKey struct {
		s  *stream
		pc int64
	}
	seen := map[mcKey]bool{}
	for _, c := range in.cells {
		if c.pcBlocks == 0 {
			continue
		}
		recs := streams[c.stream].recs
		if k := (mcKey{c.stream, c.pcBlocks}); !seen[k] {
			seen[k] = true
			mc.add(d.timed("mapcache", func() (timing, error) { return directMapcache(recs, c.pcBlocks), nil }))
		}
		pc.add(d.timed("cache", func() (timing, error) { return directCache(recs, c.cfg.Policy, c.pcBlocks) }))
	}
	out["mapcache.direct_ns_per_record"] = mc.nsPerOp()
	out["cache.direct_ns_per_record"] = pc.nsPerOp()
	out["cache.direct_hit_ratio"] = 0
	if pc.b > 0 {
		out["cache.direct_hit_ratio"] = float64(pc.a) / float64(pc.b)
	}

	// raid / sim / metrics, and the device models where the workload's
	// cells have them: once per stream.
	usesSSD := false
	for _, c := range in.cells {
		if c.cfg.Strategy == experiments.CRAID5SSD || c.cfg.Strategy == experiments.CRAID5PlusSSD {
			usesSSD = true
		}
	}
	var rd, ev, hist, hdd, ssd timing
	for _, s := range in.streams {
		l := streams[s]
		rd.add(d.timed("raid", func() (timing, error) { return directRAID(l.recs, s.dataset), nil }))
		ev.add(d.timed("sim", func() (timing, error) {
			return directSim(l.recs, int(perRecordEvents+0.5), timedDevices), nil
		}))
		hist.add(d.timed("metrics", func() (timing, error) { return directHist(int64(len(l.recs)), timedDevices), nil }))
		if timedDevices {
			hdd.add(d.timed("disk.hdd", func() (timing, error) {
				eng := sim.NewEngine()
				cfg := disk.CheetahConfig("hdd0")
				return directDisk(eng, disk.NewHDD(eng, cfg), cfg.CapacityBlocks, l, e.seed), nil
			}))
		}
		if timedDevices && usesSSD {
			ssd.add(d.timed("disk.ssd", func() (timing, error) {
				eng := sim.NewEngine()
				cfg := disk.MSRSSDConfig("ssd0")
				return directDisk(eng, disk.NewSSD(eng, cfg), cfg.CapacityBlocks, l, e.seed), nil
			}))
		}
	}
	out["raid.extent_ns_per_record"] = rd.nsPerOp()
	out["raid.extents_per_record"] = 0
	if rd.ops > 0 {
		out["raid.extents_per_record"] = float64(rd.a) / float64(rd.ops)
	}
	out["sim.ns_per_event"] = ev.nsPerOp()
	out["metrics.hist_ns_per_sample"] = hist.nsPerOp()
	out["disk.hdd_ns_per_io"] = hdd.nsPerOp()
	out["disk.ssd_ns_per_io"] = ssd.nsPerOp()

	// experiments: construction + teardown of every cell, over a
	// one-record native trace and without the fault plan (whose rebuilds
	// would outlive the record).
	one := filepath.Join(e.dir, "one-record.trace")
	if err := os.WriteFile(one, []byte("0 R 0 1\n"), 0o644); err != nil {
		return err
	}
	setup := d.timed("experiments", func() (timing, error) {
		t0 := time.Now()
		for _, c := range in.cells {
			cfg := c.cfg
			cfg.TraceFile, cfg.TraceFormat, cfg.DatasetBlocks, cfg.FaultSpec = one, "native", c.stream.dataset, ""
			if _, err := experiments.Run(cfg); err != nil {
				return timing{}, fmt.Errorf("cell %s: %w", c.name, err)
			}
		}
		return timing{d: time.Since(t0), ops: int64(len(in.cells))}, nil
	})
	out["experiments.cell_setup_ms"] = setup.nsPerOp() / 1e6
	return d.err
}

// directMapcache drives a mapcache.Table the way the monitor does, with
// the policy replaced by the cheapest possible one: LookupRun per
// extent; a hit run is dirtied on writes; a gap is inserted at bump-
// allocated cache addresses after FIFO RemoveRuns make room within the
// P_C capacity.
func directMapcache(recs []trace.Record, capacity int64) timing {
	type run struct{ orig, n int64 }
	t := mapcache.New()
	var fifo []run
	var head int
	var size, bump int64
	t0 := time.Now()
	for _, r := range recs {
		write := r.Op == disk.OpWrite
		for b, end := r.Block, r.Block+r.Count; b < end; {
			_, n, ok := t.LookupRun(b, end-b)
			if ok {
				if write {
					t.SetDirtyRun(b, n, true)
				}
			} else {
				if n > capacity {
					n = capacity
				}
				for size+n > capacity {
					size -= t.RemoveRun(fifo[head].orig, fifo[head].n)
					head++
				}
				t.InsertRun(b, bump, n, write)
				fifo = append(fifo, run{b, n})
				bump += n
				size += n
			}
			b += n
		}
	}
	return timing{d: time.Since(t0), ops: int64(len(recs))}
}

// directCache drives one replacement policy: resident runs are
// accessed, others inserted. A mapcache.Table kept in step answers
// WLRU's dirty probe, as the monitor's table does. The pass counts hit
// blocks in a and all blocks in b.
func directCache(recs []trace.Record, policy string, capacity int64) (timing, error) {
	t := mapcache.New()
	p, err := cache.New(policy, int(capacity), cache.Config{Dirty: t.IsDirty})
	if err != nil {
		return timing{}, err
	}
	var hits, blocks int64
	evicted := func(k cache.Key) { t.RemoveRun(k, 1) }
	var bump int64
	t0 := time.Now()
	for _, r := range recs {
		write := r.Op == disk.OpWrite
		blocks += r.Count
		for b, end := r.Block, r.Block+r.Count; b < end; {
			resident := p.Contains(b)
			n := int64(1)
			for b+n < end && p.Contains(b+n) == resident {
				n++
			}
			if resident {
				p.AccessRun(b, n, r.Count)
				if write {
					t.SetDirtyRun(b, n, true)
				}
				hits += n
			} else {
				// Table first, so a newborn the policy evicts within
				// its own batch is unmapped again by the callback.
				t.InsertRun(b, bump, n, write)
				bump += n
				p.InsertRun(b, n, r.Count, evicted)
			}
			b += n
		}
	}
	return timing{d: time.Since(t0), ops: int64(len(recs)), a: hits, b: blocks}, nil
}

// directRAID decomposes every record on the testbed RAID-5, counting
// the extents in a.
func directRAID(recs []trace.Record, dataset int64) timing {
	const dataDisks = testbedDisks - testbedDisks/testbedGroup
	perDisk := (dataset/dataDisks/testbedUnit + 2) * testbedUnit
	layout := raid.NewRAID5(testbedDisks, testbedGroup, perDisk, testbedUnit)
	var extents int64
	count := func(raid.Extent) { extents++ }
	t0 := time.Now()
	for _, r := range recs {
		layout.ForEachExtent(r.Block, r.Count, count)
	}
	return timing{d: time.Since(t0), ops: int64(len(recs)), a: extents}
}

// directSim schedules and fires the workload's measured event count:
// each record's event, at its trace time, schedules the next record and
// perRecord-1 followers. On instant-device workloads the followers are
// same-instant (the engine's FIFO ring); on timed ones every other
// follower lands 0.1-6.4 ms ahead, across the timing wheel's levels.
func directSim(recs []trace.Record, perRecord int, timedDevices bool) timing {
	if len(recs) == 0 {
		return timing{}
	}
	eng := sim.NewEngine()
	follower := func() {}
	var i int
	var pump func()
	pump = func() {
		for k := 1; k < perRecord; k++ {
			if timedDevices && k%2 == 0 {
				eng.After(sim.Time(100_000*(1+(i+k)%64)), follower)
			} else {
				eng.After(0, follower)
			}
		}
		if i++; i < len(recs) {
			eng.Schedule(recs[i].Time, pump)
		}
	}
	fired := sim.GlobalSchedStats().Fired
	t0 := time.Now()
	eng.Schedule(recs[0].Time, pump)
	eng.Run()
	d := time.Since(t0)
	return timing{d: d, ops: sim.GlobalSchedStats().Fired - fired}
}

// directHist records one latency sample per record: zeros on instant-
// device workloads (what they record), 50 µs-50 ms otherwise.
func directHist(samples int64, timedDevices bool) timing {
	var lat [1024]sim.Time
	if timedDevices {
		rng := rand.New(rand.NewSource(1))
		for i := range lat {
			lat[i] = sim.Time(50_000 * (1 + rng.Int63n(1000)))
		}
	}
	h := metrics.NewLatencyHist()
	t0 := time.Now()
	for i := int64(0); i < samples; i++ {
		h.Add(lat[i%int64(len(lat))])
	}
	return timing{d: time.Since(t0), ops: samples}
}

// directDisk keeps two requests outstanding on one device: uniformly
// random addresses, the stream's mean request size and write share.
func directDisk(eng *sim.Engine, dev disk.Device, capacity int64, l loaded, seed int64) timing {
	const ios = 20000
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]disk.Request, ios)
	next := 0
	var submit func(sim.Time)
	submit = func(sim.Time) {
		if next < ios {
			next++
			dev.Submit(&reqs[next-1])
		}
	}
	for i := range reqs {
		op := disk.OpRead
		if rng.Float64() < l.writeFrac {
			op = disk.OpWrite
		}
		reqs[i] = disk.Request{Op: op, Block: rng.Int63n(capacity - l.meanBlocks), Count: l.meanBlocks, Done: submit}
	}
	t0 := time.Now()
	submit(0)
	submit(0)
	eng.Run()
	return timing{d: time.Since(t0), ops: ios}
}
