package core

import (
	"bytes"
	"reflect"
	"testing"

	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
)

// countingSyncLog is a log sink with an fsync hook.
type countingSyncLog struct {
	bytes.Buffer
	syncs int
}

func (w *countingSyncLog) Sync() error { w.syncs++; return nil }

// TestMapLogSyncKnob is the Config.MapLogSync crash-recovery test at
// both settings: SetMappingLog arms fsync-on-flush on the ring exactly
// when the config asks for it, the writer then syncs once per flushed
// buffer, and the recovery byte stream — and the mappings a fresh
// controller recovers from it — is identical at both settings.
func TestMapLogSyncKnob(t *testing.T) {
	recs := randomWorkload(13, 3000, 8000)
	var logs [2][]byte
	for i, syncOn := range []bool{false, true} {
		eng := sim.NewEngine()
		arr := nullArray(eng, 4, 100000)
		disks := []int{0, 1, 2, 3}
		paLayout := raid.NewRAID5(4, 4, 4096, 4)
		c := mustCRAID(arr, Config{
			Policy:       "WLRU",
			CachePerDisk: 64,
			ParityGroup:  4,
			StripeUnit:   4,
			MapLogSync:   syncOn,
		}, true, disks, 0, paLayout, disks, 64)
		var sink countingSyncLog
		ring := mapcache.NewLogRing(&sink, 512, 3)
		c.SetMappingLog(ring)
		replayAll(t, eng, c, recs)
		if err := ring.Close(); err != nil {
			t.Fatal(err)
		}
		st := ring.Stats()
		if syncOn && (sink.syncs == 0 || st.Syncs != int64(sink.syncs)) {
			t.Fatalf("MapLogSync on: %d fsyncs observed, stats say %d", sink.syncs, st.Syncs)
		}
		if !syncOn && (sink.syncs != 0 || st.Syncs != 0) {
			t.Fatalf("MapLogSync off: log was fsynced %d times", sink.syncs)
		}
		logs[i] = sink.Bytes()
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("log streams diverged across MapLogSync settings (%d vs %d bytes)", len(logs[0]), len(logs[1]))
	}
	// Crash recovery from the synced log is the same as from the
	// unsynced one at any cut — the knob changes durability, not bytes.
	for _, cut := range []int{0, len(logs[0]) / 2, len(logs[0])} {
		a, err := mapcache.Recover(bytes.NewReader(logs[0][:cut]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapcache.Recover(bytes.NewReader(logs[1][:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cut %d: recovery diverged across MapLogSync settings", cut)
		}
	}
}
