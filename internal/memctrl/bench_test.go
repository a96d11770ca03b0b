package memctrl

import (
	"testing"

	"repro/internal/eventq"
)

func benchController(b *testing.B, disc Discipline) {
	var q eventq.Queue
	c, err := New(Config{
		Name: "b", Channels: 3, Banks: 8, RowBytes: 2048, LineBytes: 64,
		HitLatency: 26, MissLatency: 80, Discipline: disc,
	}, &q)
	if err != nil {
		b.Fatal(err)
	}
	noop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(uint64(i)*64, noop)
		if c.Occupancy() > 256 {
			q.RunUntil(q.Now() + 10000)
		}
	}
	q.Run()
}

func BenchmarkSubmitFCFS(b *testing.B)   { benchController(b, FCFS) }
func BenchmarkSubmitFRFCFS(b *testing.B) { benchController(b, FRFCFS) }
