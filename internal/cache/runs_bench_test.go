package cache

import "testing"

func benchPolicy(b *testing.B, name string) Policy {
	b.Helper()
	p, err := New(name, 1<<16, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 1<<16; i++ {
		p.Insert(i, 256)
	}
	return p
}

// BenchmarkPolicyRunAccess measures a 256-block all-hit AccessRun on
// every policy: the monitor's steady-state read-hit cost per extent.
func BenchmarkPolicyRunAccess(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p := benchPolicy(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.AccessRun(int64(i*256)%(1<<16), 256, 256)
			}
		})
	}
}

// BenchmarkPolicyRunInsert measures steady-state insert/evict churn
// through InsertRun on every policy (fresh 256-block runs against a full
// cache, so each run displaces 256 victims).
func BenchmarkPolicyRunInsert(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p := benchPolicy(b, name)
			next := int64(1 << 16)
			sink := func(Key) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.InsertRun(next, 256, 256, sink)
				next += 256
			}
		})
	}
}
