package trace

import (
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
	// Exhausted stream keeps returning false.
	s := FromSlice(refs)
	Collect(s, 0)
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream returned a ref")
	}
}

func TestCollectMax(t *testing.T) {
	s := StrideSpec{Count: 100, Stride: 8}.Stream()
	got := Collect(s, 10)
	if len(got) != 10 {
		t.Errorf("Collect(max=10) returned %d", len(got))
	}
}

func TestCount(t *testing.T) {
	if n := Count(StrideSpec{Count: 57, Stride: 64}.Stream()); n != 57 {
		t.Errorf("Count = %d, want 57", n)
	}
	if n := Count(FromSlice(nil)); n != 0 {
		t.Errorf("Count(empty) = %d", n)
	}
}

func TestStrideAddresses(t *testing.T) {
	sp := StrideSpec{Base: 1000, Stride: 64, Count: 4, Kind: Store, Work: 3}
	refs := Collect(sp.Stream(), 0)
	want := []uint64{1000, 1064, 1128, 1192}
	for i, w := range want {
		if refs[i].Addr != w {
			t.Errorf("addr %d = %d, want %d", i, refs[i].Addr, w)
		}
		if refs[i].Kind != Store || refs[i].Work != 3 {
			t.Errorf("ref %d metadata wrong: %+v", i, refs[i])
		}
	}
}

func TestGenStream(t *testing.T) {
	s := Gen(func(emit func(Ref) bool) {
		for i := 0; i < 10000; i++ {
			if !emit(Ref{Addr: uint64(i) * 64}) {
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
		name string
		read int // refs consumed before Stop
	}{
		// The producer has filled the first buffer and is parked handing
		// it over.
		{"never-read", 0},
		// The consumer is partway through the first buffer; the producer
		// is filling or handing over the second.
		{"mid-chunk", 10},
		// The consumer has drained the first buffer but not returned it,
		// so the producer holds the filled second one and waits for the
		// first to come back.
		{"after-one-chunk", genChunk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const total = 1_000_000
			produced := make(chan int, 1)
			s := Gen(func(emit func(Ref) bool) {
				n := 0
				for i := 0; i < total; i++ {
					if !emit(Ref{Addr: uint64(i)}) {
						break
					}
					n++
				}
				produced <- n
			})
			for i := 0; i < tc.read; i++ {
				r, ok := s.Next()
				if !ok {
					t.Fatal("stream ended early")
				}
				if r.Addr != uint64(i) {
					t.Fatalf("ref %d addr %d", i, r.Addr)
				}
			}
			StopAll(s)
			select {
			case n := <-produced:
				// Stop is seen at the next chunk boundary, so the producer
				// runs at most two buffers past what was consumed.
				if n > tc.read+2*genChunk {
					t.Errorf("generator produced %d refs after %d were read", n, tc.read)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("generator did not return after Stop")
			}
			if _, ok := s.Next(); ok {
				t.Error("stopped stream yielded a ref")
			}
			StopAll(s)
			if _, ok := s.Next(); ok {
				t.Error("stream yielded a ref after a second Stop")
			}
		})
	}
}

// TestGenStreamAllocsBounded pins the double buffering: a Gen stream's
// allocations do not grow with its length.
func TestGenStreamAllocsBounded(t *testing.T) {
	drain := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			s := Gen(func(emit func(Ref) bool) {
				for i := 0; i < n; i++ {
					if !emit(Ref{Addr: uint64(i) * 64}) {
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

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}
