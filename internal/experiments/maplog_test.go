package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"craid/internal/mapcache"
)

// TestMappingLogCell pins the dirty-log plumbing: a cell with
// MappingLog set writes a recoverable log and reports its counters,
// without perturbing the monitor's results.
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
	if got.MapLog.Records == 0 || got.MapLog.Flushes == 0 || got.MapLog.Flushes > got.MapLog.Records {
		t.Fatalf("implausible log counters: %+v", got.MapLog)
	}
	fi, err := os.Stat(cfg.MappingLog)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != got.MapLog.Bytes {
		t.Errorf("log file holds %d bytes, the counters say %d", fi.Size(), got.MapLog.Bytes)
	}
	f, err := os.Open(cfg.MappingLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := mapcache.Recover(f); err != nil {
		t.Errorf("the log does not recover: %v", err)
	}
}
