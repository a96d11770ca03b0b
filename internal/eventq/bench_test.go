package eventq

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	q := new(Queue)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.At(uint64(i), fn)
		if q.Len() > 1024 {
			for q.Len() > 0 {
				q.Step()
			}
		}
	}
}

func BenchmarkNestedChain(b *testing.B) {
	// Each event schedules the next: the simulator's common pattern.
	q := new(Queue)
	n := 0
	var next func()
	next = func() {
		if n < b.N {
			n++
			q.After(3, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	q.After(1, next)
	q.Run()
}

// BenchmarkMixedHorizon mimics the engine's event mix: many short-latency
// events plus an occasional long quantum-scale jump, against a standing
// population.
func BenchmarkMixedHorizon(b *testing.B) {
	q := new(Queue)
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.After(uint64(i%311), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := uint64(i % 449)
		if i%64 == 0 {
			d = 50000 // quantum-scale outlier
		}
		q.After(d, fn)
		q.Step()
	}
}
