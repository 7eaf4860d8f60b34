package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("processed %d events after Stop, want 2", count)
	}
	// Run can resume afterwards.
	e.Run()
	if count != 5 {
		t.Fatalf("processed %d events total, want 5", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must execute
	// fully within one Run.
	e := NewEngine()
	var n int
	var step func()
	step = func() {
		n++
		if n < 100 {
			e.After(Millisecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	if n != 100 {
		t.Fatalf("chain executed %d steps, want 100", n)
	}
	if e.Now() != 99*Millisecond {
		t.Fatalf("clock = %v, want 99ms", e.Now())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Error("Duration(1ms) mismatch")
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}

// Property: for any set of scheduled times, execution order is the
// sorted order of those times.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine()
		var got []Time
		for _, r := range raw {
			at := Time(r % 1_000_000)
			e.Schedule(at, func() { got = append(got, e.Now()) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: clock is monotonically non-decreasing under random
// scheduling including cascades.
func TestPropertyMonotonicClock(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	last := Time(-1)
	var check func()
	check = func() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		if rng.Intn(100) < 30 && e.Pending() < 10000 {
			e.After(Time(rng.Intn(1000)), check)
		}
	}
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(rng.Intn(100000)), check)
	}
	e.Run()
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 1024)
	for i := range times {
		times[i] = Time(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, at := range times {
			e.Schedule(at, func() {})
		}
		e.Run()
	}
}
