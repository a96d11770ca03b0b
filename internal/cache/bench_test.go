package cache

import "testing"

// benchPatterns are the cyclic address sweeps the Access benchmarks replay
// against a 256 KiB, 8-way cache of 64 B lines (4096 lines).
var benchPatterns = []struct {
	name  string
	lines uint64 // distinct lines swept in order, then repeated
}{
	// The working set is half the capacity: after the first sweep every
	// access hits, so this times the lookup alone.
	{"hit", 2048},
	// A sweep 24x the capacity: every access misses and evicts,
	// so this times the lookup plus the fill.
	{"thrash", 100000},
}

func BenchmarkAccessLRU(b *testing.B) {
	for _, p := range benchPatterns {
		b.Run(p.name, func(b *testing.B) {
			c, err := New(Config{Name: "b", Size: 256 << 10, Line: 64, Ways: 8, Latency: 10})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i) % p.lines * 64)
			}
		})
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	l1, _ := New(Config{Name: "L1", Size: 2 << 10, Line: 64, Ways: 8, Latency: 4})
	l2, _ := New(Config{Name: "L2", Size: 16 << 10, Line: 64, Ways: 8, Latency: 10})
	l3, _ := New(Config{Name: "L3", Size: 768 << 10, Line: 64, Ways: 12, Latency: 38})
	h := NewHierarchy(l1, l2, l3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%200000) * 64)
	}
}
