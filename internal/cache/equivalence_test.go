package cache

import (
	"math/rand"
	"testing"
)

// TestArenaMatchesMapReference is the rewrite's safety net: every
// slot-arena policy is driven through a long random workload — point
// ops and run ops — in lockstep with its retained map-based
// reference (reference_test.go), requiring the identical victim
// sequence at every insert, identical Len and residency at every step,
// and identical adaptive state (ARC's p) throughout.
func TestArenaMatchesMapReference(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				const capacity = 96
				dirty := func(k Key) bool { return k%3 == 0 }
				cfg := Config{Dirty: dirty}
				arena, err := New(name, capacity, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newReferencePolicy(name, capacity, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(101 + seed))
				var got, want []Key
				for step := 0; step < 4000; step++ {
					k := rng.Int63n(768)
					size := rng.Int63n(256) + 1
					switch rng.Intn(10) {
					case 0, 1: // point access
						arena.Access(k, size)
						ref.Access(k, size)
					case 2: // point insert
						gv, ge := arena.Insert(k, size)
						wv, we := ref.Insert(k, size)
						if ge != we || (ge && gv != wv) {
							t.Fatalf("step %d: Insert(%d) victim %d/%v, want %d/%v",
								step, k, gv, ge, wv, we)
						}
					case 3, 4, 5: // access run
						n := rng.Int63n(48) + 1
						arena.AccessRun(k, n, size)
						ref.AccessRun(k, n, size)
					default: // insert run
						n := rng.Int63n(48) + 1
						got, want = got[:0], want[:0]
						arena.InsertRun(k, n, size, func(v Key) { got = append(got, v) })
						ref.InsertRun(k, n, size, func(v Key) { want = append(want, v) })
						if len(got) != len(want) {
							t.Fatalf("step %d: InsertRun(%d,%d) evicted %d, want %d",
								step, k, n, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("step %d: victim %d: got %d, want %d", step, i, got[i], want[i])
							}
						}
					}
					if arena.Len() != ref.Len() {
						t.Fatalf("step %d: Len %d != %d", step, arena.Len(), ref.Len())
					}
					if probe := Key(rng.Int63n(768)); arena.Contains(probe) != ref.Contains(probe) {
						t.Fatalf("step %d: Contains(%d) diverged", step, probe)
					}
					if a, ok := arena.(*ARC); ok {
						if r := ref.(*refARC); a.P() != r.P() {
							t.Fatalf("step %d: ARC p %d != %d", step, a.P(), r.P())
						}
					}
				}
				a, b := sortedKeys(arena), sortedKeys(ref)
				if len(a) != len(b) {
					t.Fatalf("final residency size %d != %d", len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("final residency diverged at %d: %d != %d", i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestArenaMatchesMapReferenceExtents replays the monitor's actual
// traffic shape — long consecutive runs, re-accessed whole — where the
// one-probe chain-splice fast paths of LRU/WLRU fire constantly, and
// checks victims and residency against the reference per step.
func TestArenaMatchesMapReferenceExtents(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			const capacity = 512
			dirty := func(k Key) bool { return k%7 < 2 }
			cfg := Config{Dirty: dirty}
			arena, _ := New(name, capacity, cfg)
			ref, _ := newReferencePolicy(name, capacity, cfg)
			rng := rand.New(rand.NewSource(7))
			var got, want []Key
			for step := 0; step < 2500; step++ {
				// Extent traffic: 64-block aligned runs over 4x capacity.
				k := 64 * rng.Int63n(32)
				n := int64(64)
				if rng.Intn(4) == 0 { // occasionally a partial extent
					k += rng.Int63n(32)
					n = rng.Int63n(63) + 1
				}
				if rng.Intn(2) == 0 {
					arena.AccessRun(k, n, 64)
					ref.AccessRun(k, n, 64)
				} else {
					got, want = got[:0], want[:0]
					arena.InsertRun(k, n, 64, func(v Key) { got = append(got, v) })
					ref.InsertRun(k, n, 64, func(v Key) { want = append(want, v) })
					if len(got) != len(want) {
						t.Fatalf("step %d: evicted %d, want %d", step, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d: victim %d: got %d, want %d", step, i, got[i], want[i])
						}
					}
				}
				if arena.Len() != ref.Len() {
					t.Fatalf("step %d: Len %d != %d", step, arena.Len(), ref.Len())
				}
			}
			a, b := sortedKeys(arena), sortedKeys(ref)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("final residency diverged at %d: %d != %d", i, a[i], b[i])
				}
			}
		})
	}
}
