package experiments

import (
	"reflect"
	"testing"
)

// TestRunAllDeterministicAcrossParallelism runs the same small matrix
// at several worker bounds and requires byte-identical results in
// config order: parallelism must never change what an experiment
// reports.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	var cfgs []RunConfig
	for _, policy := range []string{"LRU", "ARC", "WLRU"} {
		for _, trace := range []string{"wdev", "webresearch"} {
			cfgs = append(cfgs, RunConfig{
				Trace: trace, Scale: QuickScale, Strategy: CRAID5,
				Policy: policy, Instant: true, PCBlocks: 2000,
			})
		}
	}
	defer SetParallelism(parallelism)
	SetParallelism(1)
	serial, err := RunAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	dropRingTelemetry(serial)
	for _, workers := range []int{2, 4, 8} {
		SetParallelism(workers)
		parallel, err := RunAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		dropRingTelemetry(parallel)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			// CRAID points at per-run counters; compare the values.
			if *parallel[i].CRAID != *serial[i].CRAID {
				t.Errorf("workers=%d result %d: stats %+v != serial %+v",
					workers, i, *parallel[i].CRAID, *serial[i].CRAID)
			}
			a, b := parallel[i], serial[i]
			a.CRAID, b.CRAID = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("workers=%d result %d: %+v != serial %+v", workers, i, a, b)
			}
		}
	}
}

// TestSetParallelismClamps verifies the lower bound.
func TestSetParallelismClamps(t *testing.T) {
	defer SetParallelism(parallelism)
	SetParallelism(-3)
	if parallelism != 1 {
		t.Fatalf("parallelism = %d after SetParallelism(-3), want 1", parallelism)
	}
}
