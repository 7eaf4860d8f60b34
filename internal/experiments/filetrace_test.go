package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeTempTrace drops content into a temp file and returns its path.
func writeTempTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fileCfg(path, format string) RunConfig {
	return RunConfig{
		Trace:         "file",
		Scale:         QuickScale,
		Strategy:      CRAID5,
		PCPct:         0.02,
		TraceFile:     path,
		TraceFormat:   format,
		DatasetBlocks: 50_000,
	}
}

func TestRunFileTraceNative(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		op := "R"
		if i%4 == 0 {
			op = "W"
		}
		fmt.Fprintf(&sb, "%d %s %d 8\n", i*100, op, (i*37)%40_000)
	}
	path := writeTempTrace(t, "t.trace", sb.String())

	res, err := Run(fileCfg(path, "native"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 500 {
		t.Fatalf("replayed %d requests, want 500", res.Requests)
	}
	if res.CRAID == nil || res.CRAID.ReadBlocks == 0 {
		t.Fatal("file replay produced no monitor traffic")
	}
}

func TestRunFileTraceNeedsDataset(t *testing.T) {
	path := writeTempTrace(t, "t.trace", "0 R 0 1\n")
	cfg := fileCfg(path, "native")
	cfg.DatasetBlocks = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("file trace without DatasetBlocks did not error")
	}
}

func TestRunFileTraceUnknownFormat(t *testing.T) {
	path := writeTempTrace(t, "t.trace", "0 R 0 1\n")
	if _, err := Run(fileCfg(path, "pcap")); err == nil {
		t.Fatal("unknown format did not error")
	}
}

func TestRunFileTraceDerivesScale(t *testing.T) {
	path := writeTempTrace(t, "t.trace", "0 R 0 1\n100 W 8 2\n")
	cfg := fileCfg(path, "native")
	cfg.Scale = 0 // library callers may leave it to DatasetBlocks
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Fatalf("replayed %d requests, want 2", res.Requests)
	}
}

func TestRunFileTraceRejectsBursty(t *testing.T) {
	path := writeTempTrace(t, "t.trace", "0 R 0 1\n")
	cfg := fileCfg(path, "native")
	cfg.Bursty = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("Bursty on a file trace did not error (it would be silently ignored)")
	}
}

// TestRunFileTraceRejectsVolumeOnNonMSR: only MSR records carry a
// volume, so a TraceVolume on another format is an error rather than a
// replay of every record as if they were one volume's.
func TestRunFileTraceRejectsVolumeOnNonMSR(t *testing.T) {
	path := writeTempTrace(t, "t.trace", "0 R 0 1\n100 W 8 2\n")
	vol := 2
	for _, format := range []string{"", "native", "blk"} {
		cfg := fileCfg(path, format)
		cfg.TraceVolume = &vol
		if res, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "TraceVolume") {
			t.Errorf("format %q with TraceVolume: %d requests, err %v; want a TraceVolume error", format, res.Requests, err)
		}
	}
}

func TestRunFileTraceRejectsNegativeVolume(t *testing.T) {
	path := writeTempTrace(t, "t.csv", "1,h,0,Read,0,4096,1\n")
	cfg := fileCfg(path, "msr")
	bad := -1
	cfg.TraceVolume = &bad
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative TraceVolume did not error")
	}
}

// buildMSRFile renders an MSR CSV interleaving records of several
// DiskNumbers, returning the per-volume record counts.
func buildMSRFile(t *testing.T, vols []int, perVol int) (string, map[int]int64) {
	t.Helper()
	var sb strings.Builder
	counts := make(map[int]int64)
	ft := int64(128166372003061629)
	for i := 0; i < perVol; i++ {
		for _, v := range vols {
			typ := "Read"
			if (i+v)%3 == 0 {
				typ = "Write"
			}
			fmt.Fprintf(&sb, "%d,host,%d,%s,%d,%d,100\n",
				ft, v, typ, ((i*13+v)%30_000)*4096, 4096)
			counts[v]++
			ft += 1000
		}
	}
	return writeTempTrace(t, "msr.csv", sb.String()), counts
}

func TestRunMSRVolumesSplitsAndRunsAll(t *testing.T) {
	vols := []int{0, 2, 5}
	path, counts := buildMSRFile(t, vols, 200)

	results, err := new(Runner).RunMSRVolumes(path, fileCfg("", "msr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(vols) {
		t.Fatalf("got %d volume results, want %d", len(results), len(vols))
	}
	for i, vr := range results {
		if vr.Volume != vols[i] {
			t.Errorf("result %d: volume %d, want %d (ascending order)", i, vr.Volume, vols[i])
		}
		if vr.Requests != counts[vr.Volume] {
			t.Errorf("volume %d replayed %d requests, want %d", vr.Volume, vr.Requests, counts[vr.Volume])
		}
	}

	// Each parallel per-volume result must equal a directly configured
	// single-volume run in everything but the config and the ring's
	// goroutine-timing counters (a split changes concurrency, not
	// outcomes).
	for _, vr := range results {
		solo := fileCfg(path, "msr")
		solo.TraceVolume = &vr.Volume
		res, err := Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		got := dropRingTelemetry([]RunResult{vr.RunResult})[0]
		want := dropRingTelemetry([]RunResult{res})[0]
		got.Cfg, want.Cfg = RunConfig{}, RunConfig{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("volume %d: split result diverged from a direct TraceVolume run:\n got %+v\nwant %+v", vr.Volume, got, want)
		}
	}

	// The zero value of TraceVolume (nil) replays every volume.
	all, err := Run(fileCfg(path, "msr"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if all.Requests != total {
		t.Errorf("nil TraceVolume replayed %d requests, want all %d", all.Requests, total)
	}
}

func TestRunMSRVolumesEmptyFile(t *testing.T) {
	path := writeTempTrace(t, "empty.csv", "# nothing\n")
	if _, err := new(Runner).RunMSRVolumes(path, fileCfg("", "msr")); err == nil {
		t.Fatal("empty MSR file did not error")
	}
}
