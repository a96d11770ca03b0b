package trace

import (
	"testing"
	"testing/quick"
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

func TestConcatAndRepeat(t *testing.T) {
	a := StrideSpec{Base: 0, Stride: 8, Count: 2}
	b := StrideSpec{Base: 100, Stride: 8, Count: 3}
	refs := Collect(Concat(a.Maker(), b.Maker()), 0)
	if len(refs) != 5 {
		t.Fatalf("concat length = %d", len(refs))
	}
	if refs[2].Addr != 100 {
		t.Errorf("first b ref addr = %d", refs[2].Addr)
	}

	reps := Collect(Repeat(3, a.Maker()), 0)
	if len(reps) != 6 {
		t.Fatalf("repeat length = %d", len(reps))
	}
	if reps[2].Addr != 0 || reps[3].Addr != 8 {
		t.Errorf("repeat did not restart: %+v", reps)
	}
}

func TestRepeatZero(t *testing.T) {
	if n := Count(Repeat(0, StrideSpec{Count: 5}.Maker())); n != 0 {
		t.Errorf("Repeat(0) produced %d refs", n)
	}
}

func TestLimit(t *testing.T) {
	s := Limit(StrideSpec{Count: 100, Stride: 8}.Stream(), 7)
	if n := Count(s); n != 7 {
		t.Errorf("Limit = %d refs", n)
	}
	s = Limit(StrideSpec{Count: 3, Stride: 8}.Stream(), 10)
	if n := Count(s); n != 3 {
		t.Errorf("Limit beyond length = %d refs", n)
	}
}

func TestInterleave(t *testing.T) {
	a := StrideSpec{Base: 0, Stride: 8, Count: 2}.Stream()
	b := StrideSpec{Base: 1000, Stride: 8, Count: 4}.Stream()
	refs := Collect(Interleave(a, b), 0)
	if len(refs) != 6 {
		t.Fatalf("interleave length = %d", len(refs))
	}
	wantAddrs := []uint64{0, 1000, 8, 1008, 1016, 1024}
	for i, w := range wantAddrs {
		if refs[i].Addr != w {
			t.Errorf("interleave[%d] = %d, want %d", i, refs[i].Addr, w)
		}
	}
}

func TestCounting(t *testing.T) {
	var n int64
	s := Counting(StrideSpec{Count: 9, Stride: 8}.Stream(), &n)
	Count(s)
	if n != 9 {
		t.Errorf("counter = %d, want 9", n)
	}
}

func TestRandomSpecBoundsAndDeterminism(t *testing.T) {
	sp := RandomSpec{Base: 4096, Size: 8192, Align: 64, Count: 500, Seed: 11}
	refs1 := Collect(sp.Stream(), 0)
	refs2 := Collect(sp.Stream(), 0)
	if len(refs1) != 500 {
		t.Fatalf("count = %d", len(refs1))
	}
	for i, r := range refs1 {
		if r.Addr < 4096 || r.Addr >= 4096+8192 {
			t.Fatalf("ref %d addr %d out of bounds", i, r.Addr)
		}
		if r.Addr%64 != 0 {
			t.Fatalf("ref %d addr %d not aligned", i, r.Addr)
		}
		if refs2[i] != r {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, r, refs2[i])
		}
	}
}

func TestRandomSpecZeroSize(t *testing.T) {
	if n := Count(RandomSpec{Count: 5}.Stream()); n != 0 {
		t.Errorf("zero-size random produced %d refs", n)
	}
}

func TestGatherAddresses(t *testing.T) {
	sp := GatherSpec{Base: 1 << 20, ElemSize: 8, Idx: []uint32{0, 5, 2}, Kind: Load, Dep: true}
	refs := Collect(sp.Stream(), 0)
	want := []uint64{1 << 20, 1<<20 + 40, 1<<20 + 16}
	for i, w := range want {
		if refs[i].Addr != w {
			t.Errorf("gather[%d] = %d, want %d", i, refs[i].Addr, w)
		}
		if !refs[i].Dep {
			t.Errorf("gather[%d] should be dependent", i)
		}
	}
}

func TestChaseVisitsAllNodes(t *testing.T) {
	sp := ChaseSpec{Base: 0, NodeSize: 64, Nodes: 16, Count: 16, Seed: 5}
	refs := Collect(sp.Stream(), 0)
	if len(refs) != 16 {
		t.Fatalf("chase count = %d", len(refs))
	}
	seen := map[uint64]bool{}
	for _, r := range refs {
		if !r.Dep {
			t.Fatal("chase refs must be dependent")
		}
		if r.Addr%64 != 0 || r.Addr >= 16*64 {
			t.Fatalf("bad chase addr %d", r.Addr)
		}
		seen[r.Addr] = true
	}
	// A single cycle through all nodes visits each exactly once in 16 steps.
	if len(seen) != 16 {
		t.Errorf("chase visited %d distinct nodes, want 16", len(seen))
	}
}

func TestChaseEmpty(t *testing.T) {
	if n := Count(ChaseSpec{Nodes: 0, Count: 5}.Stream()); n != 0 {
		t.Errorf("empty chase produced %d refs", n)
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

func TestWorkSpec(t *testing.T) {
	refs := Collect(WorkSpec{Scratch: 128, Cycles: 1000}.Stream(), 0)
	if len(refs) != 1 || refs[0].Work != 1000 || refs[0].Addr != 128 {
		t.Errorf("work spec refs = %+v", refs)
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

// Property: Concat length equals sum of part lengths.
func TestConcatLengthProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		var makers []Maker
		want := 0
		for i, c := range counts {
			if i >= 8 {
				break
			}
			n := int(c % 50)
			want += n
			makers = append(makers, StrideSpec{Count: n, Stride: 8}.Maker())
		}
		return Count(Concat(makers...)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Repeat(n, m) yields n times the refs of one instance of m.
func TestRepeatLengthProperty(t *testing.T) {
	f := func(n, c uint8) bool {
		reps := int(n % 10)
		cnt := int(c % 30)
		m := StrideSpec{Count: cnt, Stride: 4}.Maker()
		return Count(Repeat(reps, m)) == reps*cnt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
