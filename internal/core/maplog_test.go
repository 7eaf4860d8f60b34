package core

import (
	"bytes"
	"reflect"
	"testing"

	"craid/internal/mapcache"
	"craid/internal/raid"
	"craid/internal/sim"
)

// countingSyncLog is a log sink with an fsync hook. unsynced is the
// number of non-empty writes since the last Sync.
type countingSyncLog struct {
	bytes.Buffer
	writes, empty, syncs int
	unsynced             int
	maxUnsynced          int
}

func (w *countingSyncLog) Write(p []byte) (int, error) {
	w.writes++
	if len(p) == 0 {
		w.empty++
	}
	w.unsynced++
	w.maxUnsynced = max(w.maxUnsynced, w.unsynced)
	return w.Buffer.Write(p)
}

func (w *countingSyncLog) Sync() error { w.syncs++; w.unsynced = 0; return nil }

// TestMapLogSyncKnob is the Config.MapLogSync crash-recovery test at
// both settings: SetMappingLog fsyncs the sink exactly when the config
// asks for it, then once after every write — and it never writes an
// empty buffer, so that is once per non-empty flush — and the recovery
// byte stream, and the mappings a fresh controller recovers from it,
// is identical at both settings.
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
		c.SetMappingLog(&sink)
		replayAll(t, eng, c, recs)
		st, err := c.CloseMappingLog()
		if err != nil {
			t.Fatal(err)
		}
		if st.Flushes != int64(sink.writes) || sink.empty != 0 || st.Flushes < 100 ||
			st.Bytes != int64(sink.Len()) || st.Records*mapcache.LogRecordSize != st.Bytes {
			t.Fatalf("stats %+v against a sink of %d bytes in %d writes, %d of them empty",
				st, sink.Len(), sink.writes, sink.empty)
		}
		if syncOn && (sink.syncs != sink.writes || sink.maxUnsynced != 1 || st.Syncs != int64(sink.syncs)) {
			t.Fatalf("MapLogSync on: %d fsyncs for %d writes (at most %d writes between two), stats say %d",
				sink.syncs, sink.writes, sink.maxUnsynced, st.Syncs)
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

// TestMappingLogMatchesUnbufferedAtEveryApplyStep is the buffered
// log's contract: two controllers replay one workload, one logging
// through SetMappingLog, the control with its table writing every
// record straight into a buffer. Outside an apply step — when a Submit
// has returned, and when the engine has run the completions (background
// copy-ins among them) up to the next record — the two sinks hold the
// same bytes.
func TestMappingLogMatchesUnbufferedAtEveryApplyStep(t *testing.T) {
	recs := randomWorkload(17, 3000, 12000)
	engB, engU := sim.NewEngine(), sim.NewEngine()
	buffered, _ := newTestCRAID(engB, 64)
	control, _ := newTestCRAID(engU, 64)
	var sinkB, sinkU bytes.Buffer
	buffered.SetMappingLog(&sinkB)
	control.mon.table.SetLog(&sinkU)

	same := func(when string, i int) {
		t.Helper()
		if !bytes.Equal(sinkB.Bytes(), sinkU.Bytes()) {
			t.Fatalf("%s record %d: buffered sink holds %d bytes, control %d, or they differ",
				when, i, sinkB.Len(), sinkU.Len())
		}
	}
	for i, rec := range recs {
		engB.RunUntil(rec.Time)
		engU.RunUntil(rec.Time)
		same("before", i)
		if err := buffered.Submit(rec, nil); err != nil {
			t.Fatal(err)
		}
		if err := control.Submit(rec, nil); err != nil {
			t.Fatal(err)
		}
		same("after", i)
	}
	engB.Run()
	engU.Run()
	st, err := buffered.CloseMappingLog()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sinkB.Bytes(), sinkU.Bytes()) {
		t.Fatalf("after close: buffered sink holds %d bytes, control %d, or they differ", sinkB.Len(), sinkU.Len())
	}
	if st.Bytes != int64(sinkU.Len()) || st.Records == 0 {
		t.Fatalf("stats %+v for a log of %d bytes", st, sinkU.Len())
	}
	if buffered.mon.table.Len() != control.mon.table.Len() || *buffered.Stats() != *control.Stats() {
		t.Fatal("buffering the log changed the simulation")
	}
	// A step that logs more than the buffer holds spills in order.
	eng := sim.NewEngine()
	big, _ := newTestCRAID(eng, 4096)
	ctl, _ := newTestCRAID(sim.NewEngine(), 4096)
	var sb, su bytes.Buffer
	big.SetMappingLog(&sb)
	ctl.mon.table.SetLog(&su)
	n := int64(3 * mapLogBufBytes / mapcache.LogRecordSize)
	big.mon.table.InsertRun(0, 0, n, true)
	ctl.mon.table.InsertRun(0, 0, n, true)
	if sb.Len() == 0 || sb.Len() >= su.Len() || !bytes.HasPrefix(su.Bytes(), sb.Bytes()) {
		t.Fatalf("mid-step: buffered sink holds %d of the control's %d bytes", sb.Len(), su.Len())
	}
	if st, err := big.CloseMappingLog(); err != nil || st.Records != n || !bytes.Equal(sb.Bytes(), su.Bytes()) {
		t.Fatalf("spilled log: %+v, %v; %d bytes against the control's %d", st, err, sb.Len(), su.Len())
	}
}
