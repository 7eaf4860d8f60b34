package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMappingLogCell pins the batched dirty-log plumbing: a cell with
// MappingLog set writes a recoverable ring-flushed log and reports the
// ring's counters, without perturbing the monitor's results.
func TestMappingLogCell(t *testing.T) {
	base := RunConfig{
		Trace: "wdev", Scale: QuickScale, Strategy: CRAID5,
		PCPct: 0.008,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.MappingLog = filepath.Join(t.TempDir(), "dirty.log")
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *got.CRAID != *ref.CRAID {
		t.Errorf("logging perturbed the monitor\n got %+v\nwant %+v", *got.CRAID, *ref.CRAID)
	}
	if got.MapLog.Records == 0 || got.MapLog.Flushes == 0 {
		t.Fatalf("log ring never used: %+v", got.MapLog)
	}
	fi, err := os.Stat(cfg.MappingLog)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != got.MapLog.Bytes {
		t.Errorf("log file holds %d bytes, ring reports %d", fi.Size(), got.MapLog.Bytes)
	}
}
