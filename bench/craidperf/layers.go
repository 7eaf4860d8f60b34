package main

// counterMetrics derives the per-layer counts from the timed rounds. A
// deterministic simulator repeats them exactly, so they come from the
// first round; the three replay-ring counters depend on goroutine
// timing and are medians over the rounds. A path RunResult no longer
// carries contributes 0.
func counterMetrics(in *inputs, m *measurement, out map[string]float64) {
	first := m.rounds[0]
	var records, fired float64
	sum := func(path string) float64 {
		var t float64
		for _, o := range first {
			v, _ := o.res.num(path)
			t += v
		}
		return t
	}
	for i, o := range first {
		records += float64(in.cells[i].stream.records)
		fired += float64(o.fired)
	}
	perRecord := func(paths ...string) float64 {
		var t float64
		for _, p := range paths {
			t += sum(p)
		}
		return t / records
	}
	out["core.hit_ratio"] = 0
	if blocks := sum("CRAID.ReadBlocks") + sum("CRAID.WriteBlocks"); blocks > 0 {
		out["core.hit_ratio"] = (sum("CRAID.ReadHits") + sum("CRAID.WriteHits")) / blocks
	}
	out["core.evictions_per_record"] = perRecord("CRAID.Evictions")
	out["core.dirty_evictions_per_record"] = perRecord("CRAID.DirtyEvictions")
	out["core.copyin_blocks_per_record"] = perRecord("CRAID.CopyIns")
	out["core.writeback_blocks_per_record"] = perRecord("CRAID.Writebacks")
	out["sim.events_per_record"] = fired / records
	out["experiments.cells"] = float64(len(in.cells))

	for name, path := range map[string]string{
		"core.fault.degraded_reads":     "Fault.DegradedReads",
		"core.fault.peer_reads":         "Fault.PeerReads",
		"core.fault.retries":            "Fault.Retries",
		"core.fault.rebuild_rows":       "Fault.RebuildRows",
		"core.fault.recovered_mappings": "Fault.RecoveredMappings",
		"core.fault.expand_migrated":    "Fault.ExpandMigrated",
		"core.fault.lost_extents":       "Fault.LostExtents",
	} {
		out[name] = sum(path)
	}

	// Modelled outputs: simulated time, unweighted means over the cells.
	cells := float64(len(first))
	const msPerNS, sPerNS = 1e-6, 1e-9
	out["model.read_mean_ms"] = sum("ReadMean") / cells * msPerNS
	out["model.read_p99_ms"] = sum("ReadP99") / cells * msPerNS
	out["model.write_mean_ms"] = sum("WriteMean") / cells * msPerNS
	out["model.write_p99_ms"] = sum("WriteP99") / cells * msPerNS
	out["model.queue_mean"] = sum("QueueMean") / cells
	out["model.rebuild_s"] = sum("RebuildDuration") * sPerNS
	out["model.upgrade_s"] = (sum("Fault.ExpandEnd") - sum("Fault.ExpandStart")) * sPerNS

	// Replay ring: per round, stalls summed and the high-water mark
	// taken over the cells.
	var replayStalls, readerStalls, highWater []float64
	for _, outs := range m.rounds {
		var rp, rd, hw float64
		for _, o := range outs {
			v, _ := o.res.num("Replay.ReplayStalls")
			rp += v
			v, _ = o.res.num("Replay.ReaderStalls")
			rd += v
			if v, _ = o.res.num("Replay.RingHighWater"); v > hw {
				hw = v
			}
		}
		replayStalls = append(replayStalls, rp)
		readerStalls = append(readerStalls, rd)
		highWater = append(highWater, hw)
	}
	out["core.replay_stalls"] = median(replayStalls)
	out["core.reader_stalls"] = median(readerStalls)
	out["core.ring_high_water"] = median(highWater)
}

// profileMetrics spreads the traced rounds' CPU time over the layers.
func profileMetrics(p *pkgProfile, tracedRecords int64, out map[string]float64) {
	for _, l := range layers {
		out[l+".cpu_share"], out[l+".ns_per_record"] = 0, 0
		if p.total > 0 && tracedRecords > 0 {
			out[l+".cpu_share"] = float64(p.ns[l]) / float64(p.total)
			out[l+".ns_per_record"] = float64(p.ns[l]) / float64(tracedRecords)
		}
	}
}
