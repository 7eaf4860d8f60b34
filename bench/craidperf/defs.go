package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names, units, directions and bounds; the smoke test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
	// bound (end-to-end only) is the share of the parent's median the
	// metric may worsen by before a change counts as a regression.
	bound float64
	// exact (per-layer only) marks counts a deterministic simulator
	// repeats digit for digit: two runs of one commit must agree, and
	// -compare lists the ones that do not.
	exact bool
}

// endToEnd is what a user of the simulator sees, on every workload.
var endToEnd = []metricDef{
	{name: "records_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_record", unit: "1/record", better: "lower", bound: 0.06},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is reported by the traced run. Simulated statistics (core.*
// counts, model.*) carry a direction because the schema wants one; they
// are never gated: a host-time-only change must leave them identical.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// From the timed rounds, by JSON path out of RunResult.
		{name: "core.hit_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "core.evictions_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "core.dirty_evictions_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "core.copyin_blocks_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "core.writeback_blocks_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "core.replay_stalls", unit: "count", better: "lower"},
		{name: "core.reader_stalls", unit: "count", better: "higher"},
		{name: "core.ring_high_water", unit: "count", better: "higher"},
		{name: "core.fault.degraded_reads", unit: "count", better: "lower", exact: true},
		{name: "core.fault.peer_reads", unit: "count", better: "lower", exact: true},
		{name: "core.fault.retries", unit: "count", better: "lower", exact: true},
		{name: "core.fault.rebuild_rows", unit: "count", better: "lower", exact: true},
		{name: "core.fault.recovered_mappings", unit: "count", better: "lower", exact: true},
		{name: "core.fault.expand_migrated", unit: "count", better: "lower", exact: true},
		{name: "core.fault.lost_extents", unit: "count", better: "lower", exact: true},
		{name: "sim.events_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "experiments.cells", unit: "count", better: "lower", exact: true},
		{name: "model.read_mean_ms", unit: "ms", better: "lower", exact: true},
		{name: "model.read_p99_ms", unit: "ms", better: "lower", exact: true},
		{name: "model.write_mean_ms", unit: "ms", better: "lower", exact: true},
		{name: "model.write_p99_ms", unit: "ms", better: "lower", exact: true},
		{name: "model.queue_mean", unit: "count", better: "lower", exact: true},
		{name: "model.rebuild_s", unit: "s", better: "lower", exact: true},
		{name: "model.upgrade_s", unit: "s", better: "lower", exact: true},
		// Direct timers.
		{name: "trace.parse_ns_per_record", unit: "ns", better: "lower"},
		{name: "trace.parse_mb_per_s", unit: "MB/s", better: "higher"},
		{name: "workload.gen_ns_per_record", unit: "ns", better: "lower"},
		{name: "mapcache.direct_ns_per_record", unit: "ns", better: "lower"},
		{name: "cache.direct_ns_per_record", unit: "ns", better: "lower"},
		{name: "cache.direct_hit_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "raid.extent_ns_per_record", unit: "ns", better: "lower"},
		{name: "raid.extents_per_record", unit: "1/record", better: "lower", exact: true},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "disk.hdd_ns_per_io", unit: "ns", better: "lower"},
		{name: "disk.ssd_ns_per_io", unit: "ns", better: "lower"},
		{name: "metrics.hist_ns_per_sample", unit: "ns", better: "lower"},
		{name: "experiments.cell_setup_ms", unit: "ms", better: "lower"},
		{name: "trace_overhead_pct", unit: "%", better: "lower"},
	}
	// From the CPU profile of the traced rounds, flat by package.
	for _, l := range layers {
		defs = append(defs,
			metricDef{name: l + ".cpu_share", unit: "ratio", better: "lower"},
			metricDef{name: l + ".ns_per_record", unit: "ns", better: "lower"})
	}
	return defs
}()
