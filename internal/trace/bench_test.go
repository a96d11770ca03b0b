package trace

import "testing"

// drainN reads runs from s until it has read at least n refs.
func drainN(b *testing.B, s Stream, n int) {
	for read := 0; read < n; {
		run := s.Next()
		if len(run) == 0 {
			b.Fatal("exhausted")
		}
		read += len(run)
	}
}

func BenchmarkGenStream(b *testing.B) {
	s := Gen(func(w *Writer) {
		for i := uint64(0); ; i++ {
			if !w.Emit(Ref{Addr: i * 64, Work: 1}) {
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	drainN(b, s, b.N)
	b.StopTimer()
	StopAll(s)
}
