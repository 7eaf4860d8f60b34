package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"craid/internal/experiments"
)

// TestPerVolumeHonoursJSONAndOut: -pervolume used to return before
// -json and -out were looked at, so both were silently ignored.
func TestPerVolumeHonoursJSONAndOut(t *testing.T) {
	dir := t.TempDir()
	var csv strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&csv, "%d,host,%d,Read,%d,4096,100\n", 128166372003061629+int64(i)*1000, i%3, (i%50)*4096)
	}
	tracePath := filepath.Join(dir, "msr.csv")
	if err := os.WriteFile(tracePath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-file", tracePath, "-format", "msr", "-pervolume", "-dataset-gb", "0.2"}
	volumes := func(what string, data []byte) {
		t.Helper()
		var vols []experiments.VolumeResult
		if err := json.Unmarshal(data, &vols); err != nil {
			t.Fatalf("%s is not a JSON list of volume results: %v\n%s", what, err, data)
		}
		if len(vols) != 3 || vols[0].Volume != 0 || vols[2].Volume != 2 || vols[1].Requests != 20 {
			t.Fatalf("%s: %d volumes %+v, want volumes 0, 1, 2 with 20 requests each", what, len(vols), vols)
		}
	}

	var stdout bytes.Buffer
	if err := run(append(args, "-json"), &stdout); err != nil {
		t.Fatal(err)
	}
	volumes("-json stdout", stdout.Bytes())

	stdout.Reset()
	outPath := filepath.Join(dir, "out.json")
	if err := run(append(args, "-out", outPath), &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "3 volumes") {
		t.Errorf("-out replaced the table on stdout:\n%s", stdout.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	volumes("-out file", data)
	if _, err := os.Stat(outPath + ".tmp"); !os.IsNotExist(err) {
		t.Error("-out left its temp file behind")
	}
}

// TestPerVolumeNeedsMSRFormat: only MSR files have volumes, so
// -pervolume with another -format is refused before anything is read,
// with a message that names the format it needs.
func TestPerVolumeNeedsMSRFormat(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "native.trace")
	if err := os.WriteFile(tracePath, []byte("0 R 0 8\n100 W 8 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"native", "blk"} {
		err := run([]string{"-file", tracePath, "-format", format, "-pervolume", "-dataset-gb", "0.2"}, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "-format msr") {
			t.Errorf("-format %s -pervolume: %v, want an error naming -format msr", format, err)
		}
	}
}

// TestFlagsTheSourceIgnoresAreErrors: a preset replay used to run, exit
// 0 and print the preset's numbers with -volume, -format or -dataset-gb
// given, and a -file replay dropped -trace and -budget the same way.
// Each is refused before anything runs, with a message naming the flag.
func TestFlagsTheSourceIgnoresAreErrors(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "native.trace")
	if err := os.WriteFile(tracePath, []byte("0 R 0 8\n100 W 8 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	preset := []string{"-trace", "wdev", "-budget", "0.05"}
	file := []string{"-file", tracePath, "-dataset-gb", "0.2"}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-volume", append(preset, "-volume", "3")},
		{"-format", append(preset, "-format", "blk")},
		{"-dataset-gb", append(preset, "-dataset-gb", "7")},
		{"-trace", append(file, "-trace", "wdev")},
		{"-budget", append(file, "-budget", "2")},
	} {
		var stdout bytes.Buffer
		err := run(c.args, &stdout)
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%v: %v, want an error naming %s", c.args, err, c.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a result:\n%s", c.args, stdout.String())
		}
	}
}
