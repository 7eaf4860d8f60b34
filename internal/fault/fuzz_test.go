package fault

import (
	"testing"
)

// FuzzParsePlan pins two properties over arbitrary specs: ParsePlan
// never panics, and every accepted plan is well formed — its events are
// sorted by At and each one satisfies parseEvent's rules for its kind.
// The seed corpus covers every grammar form, plus inputs that must be
// rejected (the removed dev:N{…} block among them).
func FuzzParsePlan(f *testing.F) {
	seeds := []string{
		"seed=7",
		"fail:2@5s",
		"transient:3@1s-8s,rate=0.01,lat=4",
		"transient:0@0s,rate=1",
		"rebuild:2@10s,rate=64",
		"crash@6s",
		"expand@30s,disks=5",
		"expand@30s,disks=5,retain",
		"storm:crash@10s,n=4,every=5s",
		"dev:3{transient@1s-8s,rate=0.5,lat=2;fail@20s;rebuild@30s,rate=16}",
		"seed=8;fail:2@5s;rebuild:2@10s;fail:3@12s;expand@20s,disks=2,retain;storm:crash@30s,n=2,every=1s",
		"seed=1;; ;fail:0@1ns",
		"fail:1@",
		"dev:3{fail@1s",
		"}{",
		"storm:crash@5s,n=0,every=1s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return // rejected specs only need to reject without panicking
		}
		for i, ev := range p.Events {
			if i > 0 && ev.At < p.Events[i-1].At {
				t.Fatalf("ParsePlan(%q): event %d at %d sorts before event %d at %d",
					spec, i, ev.At, i-1, p.Events[i-1].At)
			}
			if msg := eventRuleBroken(ev); msg != "" {
				t.Fatalf("ParsePlan(%q) accepted event %d %+v: %s", spec, i, ev, msg)
			}
		}
	})
}

// eventRuleBroken restates parseEvent's acceptance rules for one parsed
// event, returning which one ev breaks ("" for none).
func eventRuleBroken(ev Event) string {
	switch {
	case ev.At < 0:
		return "negative time"
	case ev.Dev < 0:
		return "negative device"
	case ev.Until != 0 && (ev.Kind != Transient || ev.Until <= ev.At):
		return "window on a non-transient event, or ending before it starts"
	case ev.Retain && ev.Kind != Expand:
		return "retain on a non-expand event"
	}
	switch ev.Kind {
	case DiskFail, CrashRestart:
	case Transient:
		if ev.Rate < 0 || ev.Rate > 1 || ev.LatencyX < 1 {
			return "transient rate outside [0,1] or lat below 1"
		}
	case Rebuild:
		if ev.RateMBps <= 0 {
			return "rebuild rate not positive"
		}
	case Expand:
		if ev.Disks < 1 {
			return "expand adds no disks"
		}
	case Storm:
		if ev.N < 1 || ev.Every <= 0 {
			return "storm without cycles or period"
		}
	default:
		return "unknown kind"
	}
	if ev.Kind != Transient && (ev.Rate != 0 || ev.LatencyX != 0) ||
		ev.Kind != Rebuild && ev.RateMBps != 0 ||
		ev.Kind != Expand && ev.Disks != 0 ||
		ev.Kind != Storm && (ev.N != 0 || ev.Every != 0) {
		return "option of another kind set"
	}
	if (ev.Kind == CrashRestart || ev.Kind == Expand || ev.Kind == Storm) && ev.Dev != 0 {
		return "device on a device-less kind"
	}
	return ""
}
