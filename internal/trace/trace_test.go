package trace

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestFromSliceAndCollect(t *testing.T) {
	refs := []Ref{
		{Addr: 0, Kind: Load, Work: 1},
		{Addr: 64, Kind: Store, Work: 2},
		{Addr: 128, Kind: Load, Dep: true},
	}
	got := Collect(FromSlice(refs), 0)
	if len(got) != 3 {
		t.Fatalf("collected %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
	// An exhausted stream keeps returning empty runs.
	s := FromSlice(refs)
	Collect(s, 0)
	if run := s.Next(); len(run) != 0 {
		t.Errorf("exhausted stream returned %d refs", len(run))
	}
}

func TestCollectMax(t *testing.T) {
	got := Collect(FromSlice(make([]Ref, 100)), 10)
	if len(got) != 10 {
		t.Errorf("Collect(max=10) returned %d", len(got))
	}
}

func TestCount(t *testing.T) {
	if n := Count(FromSlice(make([]Ref, 57))); n != 57 {
		t.Errorf("Count = %d, want 57", n)
	}
	if n := Count(FromSlice(nil)); n != 0 {
		t.Errorf("Count(empty) = %d", n)
	}
}

func TestGenStream(t *testing.T) {
	s := Gen(func(w *Writer) {
		for i := 0; i < 10000; i++ {
			if !w.Emit(Ref{Addr: uint64(i) * 64}) {
				return
			}
		}
	})
	refs := Collect(s, 0)
	if len(refs) != 10000 {
		t.Fatalf("gen produced %d refs", len(refs))
	}
	for i, r := range refs {
		if r.Addr != uint64(i)*64 {
			t.Fatalf("gen ref %d addr %d", i, r.Addr)
		}
	}
}

// TestGenStreamStopEarly stops a Gen stream in each state its producer can
// be in and checks that the generator returns within a bounded number of
// refs, that Next then reports exhaustion, and that a second Stop is
// harmless.
func TestGenStreamStopEarly(t *testing.T) {
	cases := []struct {
		name  string
		reads int // Next calls before Stop
	}{
		// The producer has filled the first buffer and is parked handing
		// it over.
		{"never-read", 0},
		// The consumer holds the first run, partway through it; the
		// producer is filling or handing over the second buffer.
		{"mid-chunk", 1},
		// The consumer is done with the first chunk and has returned its
		// buffer, which the producer refills while the consumer holds the
		// second run.
		{"after-one-chunk", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const total = 1_000_000
			produced := make(chan int, 1)
			s := Gen(func(w *Writer) {
				n := 0
				for i := 0; i < total; i++ {
					if !w.Emit(Ref{Addr: uint64(i)}) {
						break
					}
					n++
				}
				produced <- n
			})
			read := 0
			for i := 0; i < tc.reads; i++ {
				run := s.Next()
				if len(run) == 0 {
					t.Fatal("stream ended early")
				}
				for _, r := range run {
					if r.Addr != uint64(read) {
						t.Fatalf("ref %d addr %d", read, r.Addr)
					}
					read++
				}
			}
			StopAll(s)
			select {
			case n := <-produced:
				// Stop is seen at the next chunk boundary, so the producer
				// runs at most two buffers past what was consumed.
				if n > read+2*genChunk {
					t.Errorf("generator produced %d refs after %d were read", n, read)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("generator did not return after Stop")
			}
			if run := s.Next(); len(run) != 0 {
				t.Errorf("stopped stream yielded %d refs", len(run))
			}
			StopAll(s)
			if run := s.Next(); len(run) != 0 {
				t.Errorf("stream yielded %d refs after a second Stop", len(run))
			}
		})
	}
}

// seqGen returns a generator that emits n distinct refs and records each
// one Emit accepted in *emitted.
func seqGen(n int, emitted *[]Ref) func(w *Writer) {
	return func(w *Writer) {
		for i := 0; i < n; i++ {
			r := Ref{Addr: uint64(i) * 64, Kind: Kind(i % 2), Dep: i%3 == 0, Sync: i%97 == 0, Work: uint32(i % 7)}
			if !w.Emit(r) {
				return
			}
			*emitted = append(*emitted, r)
		}
	}
}

// TestGenRunsConcatenate checks that the runs a Gen stream returns
// concatenate to exactly the emitted sequence, that every run but the last
// is a whole buffer, and that the stream stays exhausted.
func TestGenRunsConcatenate(t *testing.T) {
	for _, n := range []int{0, 1, genChunk - 1, genChunk, genChunk + 1, 2 * genChunk, 3*genChunk + genChunk/2} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var emitted, got []Ref
			s := Gen(seqGen(n, &emitted))
			runs := 0
			for run := s.Next(); len(run) > 0; run = s.Next() {
				if len(run) > genChunk {
					t.Fatalf("run %d holds %d refs, more than a buffer", runs, len(run))
				}
				if len(got)+len(run) < n && len(run) != genChunk {
					t.Fatalf("run %d holds %d refs but is not the last", runs, len(run))
				}
				got = append(got, run...)
				runs++
			}
			if want := (n + genChunk - 1) / genChunk; runs != want {
				t.Errorf("%d runs, want %d", runs, want)
			}
			if !slices.Equal(got, emitted) || len(got) != n {
				t.Fatalf("read %d refs, emitted %d; the runs differ from the emitted sequence", len(got), len(emitted))
			}
			if run := s.Next(); len(run) != 0 {
				t.Errorf("exhausted stream returned %d refs", len(run))
			}
		})
	}
}

// TestGenRunsStopMidBuffer stops a Gen stream while the consumer is partway
// through a run: the runs read so far are exactly a prefix of the emitted
// sequence, the run in hand is not overwritten by the stopped producer, and
// the stream then stays exhausted.
func TestGenRunsStopMidBuffer(t *testing.T) {
	var emitted, got []Ref
	s := Gen(seqGen(10*genChunk, &emitted))
	got = append(got, s.Next()...)
	run := s.Next()
	held := slices.Clone(run)
	got = append(got, run[:genChunk/2]...)
	StopAll(s)
	if !slices.Equal(run, held) {
		t.Error("Stop changed the run the consumer holds")
	}
	if len(emitted) < len(got) || !slices.Equal(got, emitted[:len(got)]) {
		t.Fatalf("read %d refs, emitted %d; the reads are not a prefix of the emitted sequence", len(got), len(emitted))
	}
	if run := s.Next(); len(run) != 0 {
		t.Errorf("stopped stream returned %d refs", len(run))
	}
}

// TestGenStreamAllocsBounded pins the double buffering: a Gen stream's
// allocations do not grow with its length.
func TestGenStreamAllocsBounded(t *testing.T) {
	drain := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := Gen(func(w *Writer) {
				for i := 0; i < n; i++ {
					if !w.Emit(Ref{Addr: uint64(i) * 64}) {
						return
					}
				}
			})
			if got := Count(s); got != n {
				t.Fatalf("drained %d refs, want %d", got, n)
			}
		})
	}
	short, long := drain(16<<10), drain(1<<20)
	if short != long {
		t.Errorf("allocs per drained stream: %v for 16K refs, %v for 1M refs; want equal", short, long)
	}
}

// TestGenEmitAfterFalse stops a Gen stream in each state its producer can
// be in, under a generator that ignores the first false and keeps emitting
// for three more buffers: every later Emit must report false again, without
// panicking, blocking or writing into the run the consumer holds, and Stop
// must return.
func TestGenEmitAfterFalse(t *testing.T) {
	for _, reads := range []int{0, 1, 2} {
		t.Run(fmt.Sprint(reads), func(t *testing.T) {
			type result struct{ accepted, lateTrue int }
			res := make(chan result, 1)
			s := Gen(func(w *Writer) {
				var r result
				for w.Emit(Ref{Addr: uint64(r.accepted)}) {
					r.accepted++
				}
				for i := 0; i < 3*genChunk; i++ {
					if w.Emit(Ref{Addr: uint64(i)}) {
						r.lateTrue++
					}
				}
				res <- r
			})
			var held, want []Ref
			for i := 0; i < reads; i++ {
				if held = s.Next(); len(held) != genChunk {
					t.Fatal("short run from an unbounded generator")
				}
			}
			want = slices.Clone(held)
			stopped := make(chan struct{})
			go func() {
				StopAll(s)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop did not return")
			}
			r := <-res
			if !slices.Equal(held, want) {
				t.Error("an Emit after false wrote into the run the consumer holds")
			}
			if r.lateTrue != 0 {
				t.Errorf("%d of %d Emits after a false reported true", r.lateTrue, 3*genChunk)
			}
			if r.accepted > (reads+2)*genChunk {
				t.Errorf("%d refs accepted after %d runs were read", r.accepted, reads)
			}
			if run := s.Next(); len(run) != 0 {
				t.Errorf("stopped stream returned %d refs", len(run))
			}
		})
	}
}

// TestGenStopGeneratorEndsMidBuffer stops a Gen stream while its generator
// is partway through a buffer and lets the generator return on its own,
// without ever seeing a false: the partly filled buffer must not block the
// producer or reach the consumer.
func TestGenStopGeneratorEndsMidBuffer(t *testing.T) {
	release := make(chan struct{})
	s := Gen(func(w *Writer) {
		for i := 0; i < genChunk/2; i++ {
			w.Emit(Ref{Addr: uint64(i)})
		}
		<-release
		for i := genChunk / 2; i < genChunk-1; i++ {
			w.Emit(Ref{Addr: uint64(i)})
		}
	})
	stopped := make(chan struct{})
	go func() {
		StopAll(s)
		close(stopped)
	}()
	<-s.(*genStream).stop
	close(release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	if run := s.Next(); len(run) != 0 {
		t.Errorf("stopped stream returned %d refs", len(run))
	}
}

// TestGenNoAllocAfterStart pins the steady state: once a Gen stream is
// running, handing runs over between producer and consumer allocates
// nothing.
func TestGenNoAllocAfterStart(t *testing.T) {
	s := Gen(func(w *Writer) {
		for i := uint64(0); w.Emit(Ref{Addr: i * 64}); i++ {
		}
	})
	defer StopAll(s)
	s.Next()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			if len(s.Next()) != genChunk {
				t.Fatal("short run from an unbounded generator")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per 64 runs, want 0", allocs)
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}
