// Package fault provides deterministic failure injection for the
// simulator: a seeded, declarative Plan of failure events (disk
// deaths, transient-error windows, crash-restarts, rebuilds) that the
// core compiles onto the simulation clock, plus the per-device state
// the core's fault runtime draws each submission attempt's transient
// verdict from.
//
// Determinism is the design center. Verdicts are drawn by hashing
// (plan seed, device, per-device attempt counter) with the splitmix64
// finalizer — no shared RNG stream, no wall clock — and the
// single-threaded engine submits each device's attempts in the same
// order on every run, so the same plan + seed replays the same failures
// down to the event.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"craid/internal/sim"
)

// Kind enumerates the failure event types a Plan can schedule.
type Kind uint8

const (
	// DiskFail kills a device at At: the array routes around it and
	// rejects every later I/O on it, until a Rebuild event brings a spare
	// online. A DiskFail on a spare kills it too, abandoning its rebuild:
	// the next Rebuild walks from the first row.
	DiskFail Kind = iota
	// Transient opens an error window [At, Until) on a device: each
	// request independently errs with probability Rate, and all
	// service times stretch by LatencyX. Until == 0 leaves the window
	// open forever.
	Transient
	// CrashRestart tears the controller down at At and recovers it
	// from the dirty-translation log before the replay resumes.
	CrashRestart
	// Rebuild brings a spare online for a failed device at At and
	// reconstructs it stripe row by stripe row, rate-limited to
	// RateMBps; the device rejoins the array when the walk completes.
	// A Rebuild of a device whose rebuild is still walking is a no-op.
	Rebuild
	// Expand grows the array by Disks devices at At, mid-replay: the
	// controller performs an online upgrade (core's Expand, retaining
	// P_C when Retain is set) while the workload keeps flowing.
	Expand
	// Storm is a generator: N crash-restart cycles starting at At,
	// Every apart, modelling a controller that keeps dying under load.
	Storm
)

// String names the kind as it appears in plan specs.
func (k Kind) String() string {
	switch k {
	case DiskFail:
		return "fail"
	case Transient:
		return "transient"
	case CrashRestart:
		return "crash"
	case Rebuild:
		return "rebuild"
	case Expand:
		return "expand"
	case Storm:
		return "storm"
	}
	return "unknown"
}

// Event is one scheduled failure.
type Event struct {
	Kind     Kind
	Dev      int      // target device (DiskFail, Transient, Rebuild)
	At       sim.Time // firing instant
	Until    sim.Time // Transient: window end (0 = forever)
	Rate     float64  // Transient: per-request error probability
	LatencyX float64  // Transient: service-time multiplier, >= 1
	RateMBps float64  // Rebuild: reconstruction traffic rate limit
	Disks    int      // Expand: devices added
	Retain   bool     // Expand: migrate live blocks instead of invalidating
	N        int      // Storm: crash-restart cycles generated
	Every    sim.Time // Storm: period between cycles
}

// Plan is a seeded, declarative failure schedule. The zero value is a
// healthy run.
type Plan struct {
	Seed   uint64
	Events []Event
}

// HasCrash reports whether the plan contains a CrashRestart event or a
// crash storm (the runtime then needs a recoverable log image).
func (p Plan) HasCrash() bool {
	for _, ev := range p.Events {
		if ev.Kind == CrashRestart || ev.Kind == Storm {
			return true
		}
	}
	return false
}

// HasExpand reports whether the plan schedules an online expansion (the
// runtime then needs a device factory and a CRAID volume).
func (p Plan) HasExpand() bool {
	for _, ev := range p.Events {
		if ev.Kind == Expand {
			return true
		}
	}
	return false
}

// Validate checks every event's device reference against the width of
// the array the plan will install on. The walk tracks expansions: an
// event may legally target a device that exists only because an earlier
// expand item added it. Events are checked in firing order (the order
// the runtime schedules them), so a same-instant expand+fail pair
// resolves the way it executes.
func (p Plan) Validate(devices int) error {
	width := devices
	for _, ev := range p.Events {
		switch ev.Kind {
		case Expand:
			width += ev.Disks
		case DiskFail, Transient, Rebuild:
			if ev.Dev >= width {
				return fmt.Errorf("fault: %s event at %s targets device %d, but the array has only %d device(s) at that instant",
					ev.Kind, fmtTime(ev.At), ev.Dev, width)
			}
		}
	}
	return nil
}

// Transient window defaults.
const (
	DefaultRate     = 0.01
	DefaultRateMBps = 64
)

// ParsePlan parses a plan spec: semicolon-separated items of the forms
//
//	seed=7
//	fail:2@5s
//	transient:3@1s-8s,rate=0.01,lat=4
//	rebuild:2@10s,rate=64
//	crash@6s
//	expand@30s,disks=5            (expand@30s,disks=5,retain migrates)
//	storm:crash@10s,n=4,every=5s
//
// Times and window bounds use time.ParseDuration syntax and measure
// simulated time from the start of the replay. Omitted transient
// options default to rate=0.01, lat=1; an omitted rebuild rate
// defaults to 64 (MB/s). Events may appear in any order; the schedule
// is sorted by firing time.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if v, ok := strings.CutPrefix(item, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		ev, err := parseEvent(item)
		if err != nil {
			return Plan{}, err
		}
		p.Events = append(p.Events, ev)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}

// parseEvent parses one event item.
func parseEvent(item string) (Event, error) {
	head, rest, found := strings.Cut(item, "@")
	if !found {
		return Event{}, fmt.Errorf("fault: event %q has no @time", item)
	}
	var ev Event
	kind, devStr, hasDev := strings.Cut(head, ":")
	switch kind {
	case "fail":
		ev.Kind = DiskFail
	case "transient":
		ev.Kind = Transient
		ev.Rate, ev.LatencyX = DefaultRate, 1
	case "crash":
		ev.Kind = CrashRestart
	case "rebuild":
		ev.Kind = Rebuild
		ev.RateMBps = DefaultRateMBps
	case "expand":
		ev.Kind = Expand
	case "storm":
		ev.Kind = Storm
	default:
		return Event{}, fmt.Errorf("fault: unknown event kind %q in %q", kind, item)
	}
	switch ev.Kind {
	case CrashRestart, Expand:
		if hasDev {
			return Event{}, fmt.Errorf("fault: %s takes no device in %q", kind, item)
		}
	case Storm:
		// The :sub slot names what the storm repeats; only crash-restart
		// cycles are defined.
		if !hasDev || devStr != "crash" {
			return Event{}, fmt.Errorf("fault: storm repeats crash events (storm:crash@T,n=K,every=D) in %q", item)
		}
	default:
		if !hasDev {
			return Event{}, fmt.Errorf("fault: %s needs a device (%s:DEV@time) in %q", kind, kind, item)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return Event{}, fmt.Errorf("fault: bad device %q in %q", devStr, item)
		}
		ev.Dev = dev
	}

	parts := strings.Split(rest, ",")
	at, err := parseWindow(parts[0], &ev)
	if err != nil {
		return Event{}, fmt.Errorf("fault: %v in %q", err, item)
	}
	ev.At = at
	for _, opt := range parts[1:] {
		if opt == "retain" && ev.Kind == Expand {
			ev.Retain = true
			continue
		}
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return Event{}, fmt.Errorf("fault: bad option %q in %q", opt, item)
		}
		switch {
		case k == "rate" && ev.Kind == Transient:
			ev.Rate, err = strconv.ParseFloat(v, 64)
		case k == "lat" && ev.Kind == Transient:
			ev.LatencyX, err = strconv.ParseFloat(v, 64)
		case k == "rate" && ev.Kind == Rebuild:
			ev.RateMBps, err = strconv.ParseFloat(v, 64)
		case k == "disks" && ev.Kind == Expand:
			ev.Disks, err = strconv.Atoi(v)
		case k == "n" && ev.Kind == Storm:
			ev.N, err = strconv.Atoi(v)
		case k == "every" && ev.Kind == Storm:
			ev.Every, err = parseTime(v)
		default:
			return Event{}, fmt.Errorf("fault: option %q does not apply to %s in %q", k, ev.Kind, item)
		}
		if err != nil {
			return Event{}, fmt.Errorf("fault: bad value %q in %q", opt, item)
		}
	}
	if ev.Kind == Transient {
		if ev.Rate < 0 || ev.Rate > 1 {
			return Event{}, fmt.Errorf("fault: rate %g outside [0,1] in %q", ev.Rate, item)
		}
		if ev.LatencyX < 1 {
			return Event{}, fmt.Errorf("fault: lat %g below 1 in %q", ev.LatencyX, item)
		}
	}
	if ev.Kind == Rebuild && ev.RateMBps <= 0 {
		return Event{}, fmt.Errorf("fault: rebuild rate must be positive in %q", item)
	}
	if ev.Kind == Expand && ev.Disks < 1 {
		return Event{}, fmt.Errorf("fault: expand needs disks=N (N >= 1) in %q", item)
	}
	if ev.Kind == Storm {
		if ev.N < 1 {
			return Event{}, fmt.Errorf("fault: storm needs n=K (K >= 1) in %q", item)
		}
		if ev.Every <= 0 {
			return Event{}, fmt.Errorf("fault: storm needs every=D (D > 0) in %q", item)
		}
	}
	return ev, nil
}

// parseWindow parses "AT" or "AT-UNTIL" (transient windows only).
func parseWindow(s string, ev *Event) (sim.Time, error) {
	atStr, untilStr, ranged := cutDash(s)
	at, err := parseTime(atStr)
	if err != nil {
		return 0, err
	}
	if ranged {
		if ev.Kind != Transient {
			return 0, fmt.Errorf("time window on non-transient event")
		}
		until, err := parseTime(untilStr)
		if err != nil {
			return 0, err
		}
		if until <= at {
			return 0, fmt.Errorf("window end %v not after start %v", until, at)
		}
		ev.Until = until
	}
	return at, nil
}

// cutDash splits "1s-8s" at the range dash, leaving negative-duration
// syntax alone (durations here are never negative, so any '-' past
// position 0 is a separator).
func cutDash(s string) (string, string, bool) {
	if s == "" {
		return s, "", false
	}
	if i := strings.Index(s[1:], "-"); i >= 0 {
		return s[:i+1], s[i+2:], true
	}
	return s, "", false
}

func parseTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative time %q", s)
	}
	return sim.Duration(d), nil
}

func fmtTime(t sim.Time) string {
	return time.Duration(t).String()
}

// Mix is the splitmix64 finalizer: the stateless hash behind every
// verdict draw, chosen so a (seed, device, counter) triple always
// yields the same outcome with no RNG state to share or order.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Device is one device's injection state. Its caller draws one Verdict
// per submission attempt the device accepts, in submission order. The
// attempt counter advances on every draw whether or not a transient
// window is open, so opening one window never shifts the draws of a
// later one — and per-device submission order is identical on every
// run, which closes the determinism argument.
type Device struct {
	seed uint64
	n    uint64
	rate float64
	latX float64
}

// NewDevice returns the injection state for device dev under planSeed.
func NewDevice(planSeed uint64, dev int) *Device {
	return &Device{seed: Mix(planSeed ^ Mix(uint64(dev)+1)), latX: 1}
}

// SetTransient opens an error window: each request errs with
// probability rate and service times stretch by latencyX (clamped to
// >= 1).
func (d *Device) SetTransient(rate, latencyX float64) {
	if latencyX < 1 {
		latencyX = 1
	}
	d.rate, d.latX = rate, latencyX
}

// ClearTransient closes the window.
func (d *Device) ClearTransient() { d.rate, d.latX = 0, 1 }

// Verdict draws the next attempt's fate: whether it completes with an
// error, and its service-time multiplier.
func (d *Device) Verdict() (fail bool, latX float64) {
	d.n++
	if d.rate <= 0 {
		return false, d.latX
	}
	// 53 uniform bits → [0,1): the standard float64 uniform draw.
	u := float64(Mix(d.seed+d.n)>>11) / (1 << 53)
	return u < d.rate, d.latX
}
