package fault

import (
	"reflect"
	"strings"
	"testing"

	"craid/internal/disk"
	"craid/internal/sim"
)

func TestParsePlanSortsEvents(t *testing.T) {
	p, err := ParsePlan("seed=1;rebuild:2@10s;fail:2@5s")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 || p.Events[0].Kind != DiskFail || p.Events[1].Kind != Rebuild {
		t.Fatalf("events not sorted by firing time: %+v", p.Events)
	}
}

func TestParsePlanDefaults(t *testing.T) {
	p, err := ParsePlan("transient:1@1s;rebuild:2@2s")
	if err != nil {
		t.Fatal(err)
	}
	tr, rb := p.Events[0], p.Events[1]
	if tr.Rate != DefaultRate || tr.LatencyX != 1 || tr.Until != 0 {
		t.Errorf("transient defaults wrong: %+v", tr)
	}
	if rb.RateMBps != DefaultRateMBps {
		t.Errorf("rebuild default rate wrong: %+v", rb)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"fail:1",                      // no @time
		"fail@5s",                     // missing device
		"crash:2@5s",                  // crash takes no device
		"bogus:1@2s",                  // unknown kind
		"fail:-1@1s",                  // negative device
		"fail:x@1s",                   // non-numeric device
		"seed=x",                      // bad seed
		"transient:1@5s-2s",           // window end before start
		"transient:1@1s,rate=2",       // rate outside [0,1]
		"transient:1@1s,lat=0.5",      // lat below 1
		"transient:1@1s,rate",         // option without value
		"rebuild:1@1s,rate=-1",        // non-positive rebuild rate
		"fail:1@1s,rate=2",            // option on wrong kind
		"fail:1@1s-2s",                // window on non-transient
		"fail:1@notatime",             // unparseable time
		"transient:1@1s,bogus=3",      // unknown option
		"fail:1@",                     // empty time
		"expand@5s",                   // expand without disks
		"expand@5s,disks=0",           // expand with no devices
		"expand:2@5s,disks=1",         // expand takes no device
		"fail:1@5s,retain",            // retain only applies to expand
		"storm@5s,n=2,every=1s",       // storm without a sub-kind
		"storm:fail@5s,n=2,every=1s",  // only crash storms are defined
		"storm:crash@5s,every=1s",     // storm without n
		"storm:crash@5s,n=2",          // storm without every
		"storm:crash@5s,n=0,every=1s", // empty storm
		"dev:3{fail@1s}",              // the per-device block form is gone: fail:3@1s
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a bad spec", spec)
		}
	}
}

func TestHasExpand(t *testing.T) {
	with, _ := ParsePlan("expand@1s,disks=2")
	without, _ := ParsePlan("fail:1@1s")
	if !with.HasExpand() || without.HasExpand() {
		t.Fatal("HasExpand misreports")
	}
	storm, _ := ParsePlan("storm:crash@1s,n=2,every=1s")
	if !storm.HasCrash() {
		t.Fatal("a crash storm must report HasCrash")
	}
}

// TestValidateDeviceIndices pins the install-time width check,
// including the expansion-aware walk: a device that exists only after
// an expand event is legal to target after that event, not before.
func TestValidateDeviceIndices(t *testing.T) {
	ok := []string{
		"fail:4@1s",
		"transient:0@1s-2s;rebuild:4@3s",
		"expand@1s,disks=2;fail:6@2s",
		"expand@1s,disks=2;fail:6@1s", // same instant, expand sorts first
		"crash@1s;storm:crash@2s,n=2,every=1s",
	}
	for _, spec := range ok {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(5); err != nil {
			t.Errorf("Validate(5) rejected %q: %v", spec, err)
		}
	}
	bad := []string{
		"fail:5@1s",
		"transient:9@1s-2s",
		"rebuild:7@1s",
		"fail:6@1s;expand@2s,disks=2", // device exists only after the later expand
	}
	for _, spec := range bad {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(5); err == nil {
			t.Errorf("Validate(5) accepted %q", spec)
		}
	}
}

func TestHasCrash(t *testing.T) {
	with, _ := ParsePlan("fail:1@1s;crash@2s")
	without, _ := ParsePlan("fail:1@1s")
	if !with.HasCrash() || without.HasCrash() {
		t.Fatal("HasCrash misreports")
	}
	if (Plan{}).HasCrash() {
		t.Fatal("zero plan reports a crash")
	}
}

// TestVerdictDeterministic pins the replay contract: the same
// (seed, device) pair yields the identical verdict sequence on every
// construction, and different devices draw independent sequences.
func TestVerdictDeterministic(t *testing.T) {
	const n = 2000
	draw := func(d *Device) []bool {
		d.SetTransient(0.3, 2)
		out := make([]bool, n)
		for i := range out {
			out[i], _ = d.Verdict(disk.OpRead, int64(i), 1)
		}
		return out
	}
	a := draw(NewDevice(42, 3))
	b := draw(NewDevice(42, 3))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, device) produced different verdict sequences")
	}
	c := draw(NewDevice(42, 4))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different devices produced identical verdict sequences")
	}
}

// TestVerdictCounterWindowIndependent pins that the submission counter
// advances on every call whether or not a window is open: the draws
// inside a window depend only on the call index, never on what earlier
// windows did.
func TestVerdictCounterWindowIndependent(t *testing.T) {
	const warm, n = 500, 500
	record := func(d *Device) []bool {
		d.SetTransient(0.3, 2)
		out := make([]bool, n)
		for i := range out {
			out[i], _ = d.Verdict(disk.OpRead, 0, 1)
		}
		return out
	}
	// Device 1 warms up with no window; device 2 with an extreme one.
	d1 := NewDevice(7, 0)
	for i := 0; i < warm; i++ {
		d1.Verdict(disk.OpRead, 0, 1)
	}
	d2 := NewDevice(7, 0)
	d2.SetTransient(0.999, 8)
	for i := 0; i < warm; i++ {
		d2.Verdict(disk.OpWrite, 99, 7)
	}
	if !reflect.DeepEqual(record(d1), record(d2)) {
		t.Fatal("earlier window state shifted later verdict draws")
	}
}

func TestVerdictRateAndLatency(t *testing.T) {
	d := NewDevice(11, 2)
	// Closed window: never fails, multiplier 1.
	for i := 0; i < 100; i++ {
		if fail, latX := d.Verdict(disk.OpRead, 0, 1); fail || latX != 1 {
			t.Fatalf("closed window drew fail=%v latX=%g", fail, latX)
		}
	}
	d.SetTransient(0.1, 4)
	const n = 100000
	fails := 0
	for i := 0; i < n; i++ {
		fail, latX := d.Verdict(disk.OpRead, 0, 1)
		if latX != 4 {
			t.Fatalf("latX = %g, want 4", latX)
		}
		if fail {
			fails++
		}
	}
	if f := float64(fails) / n; f < 0.08 || f > 0.12 {
		t.Errorf("empirical failure rate %.4f far from configured 0.1", f)
	}
	d.ClearTransient()
	if fail, latX := d.Verdict(disk.OpRead, 0, 1); fail || latX != 1 {
		t.Fatal("ClearTransient did not close the window")
	}
	// The latency clamp: multipliers below 1 are lifted to 1.
	d.SetTransient(0, 0.25)
	if _, latX := d.Verdict(disk.OpRead, 0, 1); latX != 1 {
		t.Fatalf("latX clamp failed: %g", latX)
	}
}

func TestParsePlanTimes(t *testing.T) {
	p, err := ParsePlan("transient:1@1500ms-2.5s")
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Events[0]
	if ev.At != 1500*sim.Millisecond || ev.Until != 2500*sim.Millisecond {
		t.Fatalf("window parsed as [%d, %d)", ev.At, ev.Until)
	}
	if _, err := ParsePlan("fail:1@-5s"); err == nil ||
		!strings.Contains(err.Error(), "time") {
		t.Fatalf("negative time accepted: %v", err)
	}
}
