package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// namedPolicy is a policy and the name New built it by.
type namedPolicy struct {
	name string
	Policy
}

// allPolicies builds one instance of every policy at the given
// capacity, with no dirty function for WLRU.
func allPolicies(capacity int) []namedPolicy {
	var ps []namedPolicy
	for _, name := range Names() {
		p, err := New(name, capacity, Config{})
		if err != nil {
			panic(err)
		}
		ps = append(ps, namedPolicy{name, p})
	}
	return ps
}

func TestNewByName(t *testing.T) {
	for _, p := range allPolicies(10) {
		for k := Key(0); k < 10; k++ {
			if _, ev := p.Insert(k, 1); ev {
				t.Fatalf("%s evicted below capacity 10", p.name)
			}
		}
		if _, ev := p.Insert(10, 1); !ev {
			t.Errorf("%s did not evict at capacity 10", p.name)
		}
	}
	if _, err := New("FIFO", 10, Config{}); err == nil {
		t.Error("unknown policy name did not error")
	}
}

func TestBasicInsertContains(t *testing.T) {
	for _, p := range allPolicies(3) {
		for k := Key(0); k < 3; k++ {
			if v, ev := p.Insert(k, 1); ev {
				t.Errorf("%s: insert below capacity evicted %d", p.name, v)
			}
		}
		if p.Len() != 3 {
			t.Errorf("%s: Len = %d, want 3", p.name, p.Len())
		}
		for k := Key(0); k < 3; k++ {
			if !p.Contains(k) {
				t.Errorf("%s: missing key %d", p.name, k)
			}
		}
		if p.Contains(99) {
			t.Errorf("%s: claims to contain 99", p.name)
		}
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, p := range allPolicies(5) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			k := Key(rng.Intn(50))
			if p.Contains(k) {
				p.Access(k, 1)
			} else {
				p.Insert(k, 1)
			}
			if p.Len() > 5 {
				t.Fatalf("%s: Len %d > capacity 5", p.name, p.Len())
			}
		}
	}
}

func TestInsertAtCapacityEvictsExactlyOne(t *testing.T) {
	for _, p := range allPolicies(4) {
		for k := Key(0); k < 4; k++ {
			p.Insert(k, 1)
		}
		v, ev := p.Insert(100, 1)
		if !ev {
			t.Errorf("%s: full insert did not evict", p.name)
			continue
		}
		if p.Contains(v) {
			t.Errorf("%s: victim %d still resident", p.name, v)
		}
		if !p.Contains(100) {
			t.Errorf("%s: inserted key not resident", p.name)
		}
		if p.Len() != 4 {
			t.Errorf("%s: Len = %d after evicting insert, want 4", p.name, p.Len())
		}
	}
}

func TestInsertExistingActsAsAccess(t *testing.T) {
	for _, p := range allPolicies(2) {
		p.Insert(1, 1)
		p.Insert(2, 1)
		if v, ev := p.Insert(1, 1); ev {
			t.Errorf("%s: re-insert evicted %d", p.name, v)
		}
		if p.Len() != 2 {
			t.Errorf("%s: Len = %d after re-insert, want 2", p.name, p.Len())
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := NewLRU(3)
	p.Insert(1, 1)
	p.Insert(2, 1)
	p.Insert(3, 1)
	p.Access(1, 1) // order now LRU→MRU: 2, 3, 1
	if v, ev := p.Insert(4, 1); !ev || v != 2 {
		t.Errorf("victim = %d (evicted=%v), want 2", v, ev)
	}
	if v, ev := p.Insert(5, 1); !ev || v != 3 {
		t.Errorf("victim = %d (evicted=%v), want 3", v, ev)
	}
}

func TestWLRUPrefersCleanVictim(t *testing.T) {
	dirty := map[Key]bool{10: true, 11: true}
	p := NewWLRU(4, 0.5, func(k Key) bool { return dirty[k] })
	p.Insert(10, 1) // dirty, LRU
	p.Insert(11, 1) // dirty
	p.Insert(12, 1) // clean
	p.Insert(13, 1) // clean, MRU
	// Window = 0.5*4 = 2 candidates from the LRU end: 10 (dirty),
	// 11 (dirty) — both dirty, so plain LRU (10) is evicted.
	if v, _ := p.Insert(14, 1); v != 10 {
		t.Errorf("all-dirty window: victim = %d, want 10 (LRU fallback)", v)
	}
	// Now LRU→MRU: 11(dirty), 12, 13, 14. Window of 2: 11 dirty, 12
	// clean → 12 evicted despite 11 being least recent.
	if v, _ := p.Insert(15, 1); v != 12 {
		t.Errorf("victim = %d, want clean 12 over dirty 11", v)
	}
}

func TestWLRUFullWindowAlwaysFindsClean(t *testing.T) {
	dirty := map[Key]bool{1: true, 2: true, 3: true}
	p := NewWLRU(4, 1.0, func(k Key) bool { return dirty[k] })
	p.Insert(1, 1)
	p.Insert(2, 1)
	p.Insert(3, 1)
	p.Insert(4, 1) // clean MRU
	if v, _ := p.Insert(5, 1); v != 4 {
		t.Errorf("victim = %d, want 4 (only clean entry, full scan)", v)
	}
}

func TestLFUDAKeepsFrequentEntries(t *testing.T) {
	p := NewLFUDA(3)
	p.Insert(1, 1)
	p.Insert(2, 1)
	p.Insert(3, 1)
	for i := 0; i < 10; i++ {
		p.Access(1, 1)
		p.Access(2, 1)
	}
	// 3 has frequency 1; inserting 4 must evict 3.
	if v, _ := p.Insert(4, 1); v != 3 {
		t.Errorf("victim = %d, want infrequent 3", v)
	}
	if !p.Contains(1) || !p.Contains(2) {
		t.Error("frequent entries were evicted")
	}
}

func TestLFUDADynamicAgingAdmitsNewEntries(t *testing.T) {
	// Without aging, one-hit wonders could never displace old frequent
	// entries; LFUDA's age factor L must let the working set turn over.
	p := NewLFUDA(2)
	p.Insert(1, 1)
	for i := 0; i < 100; i++ {
		p.Access(1, 1)
	}
	p.Insert(2, 1)
	// Evicting 2 (freq 1, prio 1+L) sets L to its priority, so the next
	// insert's priority grows; repeated scans eventually displace 1.
	for k := Key(3); k < 300; k++ {
		p.Insert(k, 1)
	}
	if p.Contains(1) {
		t.Error("entry 1 survived 300 scans; dynamic aging is not working")
	}
}

func TestGDSFPrefersSmallEntries(t *testing.T) {
	p := NewGDSF(3)
	p.Insert(1, 100) // large
	p.Insert(2, 1)   // small
	p.Insert(3, 1)   // small
	// Equal frequency: K = F/S + L, so the large entry has minimum K.
	if v, _ := p.Insert(4, 1); v != 1 {
		t.Errorf("victim = %d, want large entry 1", v)
	}
}

func TestARCAdaptsP(t *testing.T) {
	a := NewARC(4)
	// Build T2 so T1 < capacity and REPLACE ghosts T1 evictions.
	a.Insert(1, 1)
	a.Access(1, 1) // promote 1 to T2
	a.Insert(2, 1)
	a.Insert(3, 1)
	a.Insert(4, 1) // T1 = {4,3,2}, T2 = {1}
	a.Insert(5, 1) // REPLACE demotes T1 LRU (2) into ghost list B1
	if a.Contains(2) {
		t.Fatal("key 2 should have been evicted")
	}
	if a.P() != 0 {
		t.Fatalf("p = %d before ghost hits, want 0", a.P())
	}
	// Hit the B1 ghost: p must grow (favor recency).
	a.Insert(2, 1)
	if a.P() == 0 {
		t.Error("p did not grow after B1 ghost hit")
	}
	if !a.Contains(2) {
		t.Error("ghost-hit key not resident after reinsert")
	}
}

func TestARCGhostsAreNotResident(t *testing.T) {
	a := NewARC(2)
	a.Insert(1, 1)
	a.Insert(2, 1)
	a.Insert(3, 1) // evicts 1 into B1
	if a.Contains(1) {
		t.Error("ghost entry reported as resident")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d, want 2", a.Len())
	}
}

func TestARCFrequencyPromotion(t *testing.T) {
	a := NewARC(4)
	a.Insert(1, 1)
	a.Access(1, 1) // 1 promoted to T2
	a.Insert(2, 1)
	a.Insert(3, 1)
	a.Insert(4, 1)
	// Scan: new keys enter T1 and should be evicted before the
	// frequently used key 1.
	for k := Key(10); k < 20; k++ {
		a.Insert(k, 1)
	}
	if !a.Contains(1) {
		t.Error("frequent entry lost to a pure scan (no scan resistance)")
	}
}

func TestARCScanResistanceBeatsLRU(t *testing.T) {
	// Classic ARC scenario: a frequently-reused hot set followed by a
	// long one-shot scan. LRU loses the hot set; ARC keeps it in T2.
	survivors := func(p Policy) int {
		for k := Key(0); k < 8; k++ { // hot set, accessed twice
			p.Insert(k, 1)
			p.Access(k, 1)
		}
		for k := Key(100); k < 1100; k++ { // one-shot scan
			p.Insert(k, 1)
		}
		n := 0
		for k := Key(0); k < 8; k++ {
			if p.Contains(k) {
				n++
			}
		}
		return n
	}
	arcN := survivors(NewARC(16))
	lruN := survivors(NewLRU(16))
	if arcN <= lruN {
		t.Errorf("hot-set survivors: ARC %d, LRU %d; ARC must be scan-resistant", arcN, lruN)
	}
	if arcN != 8 {
		t.Errorf("ARC lost %d of 8 hot entries to a one-shot scan", 8-arcN)
	}
}

// Property: all policies maintain Len <= capacity, evict only resident
// keys, and report victims consistently, for arbitrary workloads.
func TestPropertyPolicyInvariants(t *testing.T) {
	f := func(seed int64, capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%31) + 1
		for _, p := range allPolicies(capacity) {
			resident := make(map[Key]bool)
			rng := rand.New(rand.NewSource(seed))
			for _, op := range ops {
				k := Key(op % 97)
				switch rng.Intn(4) {
				case 0:
					p.Access(k, 1)
				default:
					if p.Contains(k) {
						p.Access(k, 1)
						continue
					}
					v, ev := p.Insert(k, int64(op%8)+1)
					if ev {
						if !resident[v] {
							return false // evicted a non-resident key
						}
						delete(resident, v)
					}
					resident[k] = true
				}
				if p.Len() > capacity || p.Len() != len(resident) {
					return false
				}
				for rk := range resident {
					if !p.Contains(rk) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Keys() returns exactly the resident set.
func TestPropertyKeysMatchesContains(t *testing.T) {
	f := func(raw []uint8) bool {
		for _, p := range allPolicies(8) {
			for _, r := range raw {
				k := Key(r % 32)
				if p.Contains(k) {
					p.Access(k, 1)
				} else {
					p.Insert(k, 1)
				}
			}
			keys := p.Keys()
			if len(keys) != p.Len() {
				return false
			}
			for _, k := range keys {
				if !p.Contains(k) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Zipf-skewed workloads: sanity-check the relative prediction quality
// the paper reports (§5.1): GDSF clearly worst, others comparable.
func TestPolicyRankingOnSkewedWorkload(t *testing.T) {
	run := func(p Policy) float64 {
		rng := rand.New(rand.NewSource(17))
		zipf := rand.NewZipf(rng, 1.2, 1, 5000)
		// Popular data tends to be read with larger sequential requests;
		// GDSF's K = F/S term then penalizes exactly the blocks worth
		// keeping — the paper's explanation for GDSF's poor showing.
		sizeOf := func(k Key) int64 {
			if k < 100 {
				return 64
			}
			return 4
		}
		hits, total := 0, 60000
		for i := 0; i < total; i++ {
			k := Key(zipf.Uint64())
			if p.Contains(k) {
				hits++
				p.Access(k, sizeOf(k))
			} else {
				p.Insert(k, sizeOf(k))
			}
		}
		return float64(hits) / float64(total)
	}
	ratios := make(map[string]float64)
	for _, p := range allPolicies(500) {
		ratios[p.name] = run(p)
	}
	for name, r := range ratios {
		if name == "GDSF" {
			continue
		}
		if ratios["GDSF"] >= r {
			t.Errorf("GDSF (%.3f) not worse than %s (%.3f); paper finds GDSF clearly worst",
				ratios["GDSF"], name, r)
		}
	}
	// The non-GDSF policies should be within a few points of each other.
	base := ratios["LRU"]
	for _, name := range []string{"LFUDA", "ARC", "WLRU"} {
		if diff := ratios[name] - base; diff < -0.05 || diff > 0.10 {
			t.Errorf("%s hit ratio %.3f too far from LRU %.3f", name, ratios[name], base)
		}
	}
}

func BenchmarkPolicies(b *testing.B) {
	for _, p := range allPolicies(4096) {
		p := p
		b.Run(p.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 1, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := Key(zipf.Uint64())
				if p.Contains(k) {
					p.Access(k, 1)
				} else {
					p.Insert(k, 1)
				}
			}
		})
	}
}
