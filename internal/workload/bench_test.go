package workload

import (
	"testing"

	"repro/internal/trace"
)

// benchStreams measures reference-generation throughput per kernel.
func benchStreams(b *testing.B, name string, class Class) {
	w, err := NewTuned(name, class, Tuning{RefScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	produced := 0
	for produced < b.N {
		streams := w.Streams(4)
		for _, s := range streams {
			for produced < b.N {
				run := s.Next()
				if len(run) == 0 {
					break
				}
				produced += len(run)
			}
		}
		trace.StopAll(streams...)
	}
}

func BenchmarkCGStream(b *testing.B)   { benchStreams(b, "CG", C) }
func BenchmarkSPStream(b *testing.B)   { benchStreams(b, "SP", C) }
func BenchmarkISStream(b *testing.B)   { benchStreams(b, "IS", C) }
func BenchmarkFTStream(b *testing.B)   { benchStreams(b, "FT", C) }
func BenchmarkEPStream(b *testing.B)   { benchStreams(b, "EP", C) }
func BenchmarkX264Stream(b *testing.B) { benchStreams(b, "x264", Native) }
