package burst

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowCycles(t *testing.T) {
	// 5 us at 2.66 GHz = 13300 cycles (the paper's Intel NUMA setting).
	if got := WindowCycles(DefaultWindowMicros, 2.66); got != 13300 {
		t.Errorf("window = %d cycles, want 13300", got)
	}
	// Sub-cycle windows truncate to zero, which sim reads as "off".
	if got := WindowCycles(0.0001, 1); got != 0 {
		t.Errorf("window = %d cycles, want 0", got)
	}
}

func TestExtractBasic(t *testing.T) {
	windows := []uint64{0, 3, 5, 0, 0, 2, 0, 7, 1, 1}
	bursts := Extract(windows)
	if len(bursts) != 3 {
		t.Fatalf("bursts = %+v", bursts)
	}
	want := []Burst{
		{StartWindow: 1, Windows: 2, Lines: 8},
		{StartWindow: 5, Windows: 1, Lines: 2},
		{StartWindow: 7, Windows: 3, Lines: 9},
	}
	for i, w := range want {
		if bursts[i] != w {
			t.Errorf("burst %d = %+v, want %+v", i, bursts[i], w)
		}
	}
}

func TestExtractEdges(t *testing.T) {
	if got := Extract(nil); len(got) != 0 {
		t.Errorf("nil windows -> %v", got)
	}
	if got := Extract([]uint64{0, 0, 0}); len(got) != 0 {
		t.Errorf("all-empty -> %v", got)
	}
	got := Extract([]uint64{4})
	if len(got) != 1 || got[0].Lines != 4 {
		t.Errorf("single window -> %v", got)
	}
}

func TestSizes(t *testing.T) {
	sizes := Sizes([]Burst{{Lines: 3}, {Lines: 9}})
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 9 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestAnalyzeNoTraffic(t *testing.T) {
	if _, err := Analyze([]uint64{0, 0}); !errors.Is(err, ErrNoTraffic) {
		t.Errorf("err = %v", err)
	}
}

func TestAnalyzeCounts(t *testing.T) {
	a, err := Analyze([]uint64{5, 0, 3, 3, 0, 0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Bursts != 3 || a.TotalLines != 21 || a.MaxLines != 10 {
		t.Errorf("analysis = %+v", a)
	}
	if math.Abs(a.MeanLines-7) > 1e-12 {
		t.Errorf("mean = %v", a.MeanLines)
	}
	if math.Abs(a.NonEmptyFraction-4.0/7.0) > 1e-12 {
		t.Errorf("non-empty = %v", a.NonEmptyFraction)
	}
}

// Synthetic bursty traffic: rare bursts with Pareto sizes in a long quiet
// trace must classify as Bursty with a heavy tail.
func TestClassifyBursty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	windows := make([]uint64, 200000)
	for i := 0; i < 800; i++ {
		pos := rng.Intn(len(windows))
		size := uint64(math.Pow(1-rng.Float64(), -1/1.1))
		if size > 5000 {
			size = 5000
		}
		windows[pos] += size
	}
	a, err := Analyze(windows)
	if err != nil {
		t.Fatal(err)
	}
	if a.Classify() != Bursty {
		t.Errorf("verdict = %v, non-empty = %v", a.Classify(), a.NonEmptyFraction)
	}
	if a.Tail.N >= 5 && a.Tail.R2 > 0 && a.Tail.Alpha > 4 {
		t.Errorf("Pareto bursts should have a shallow tail, alpha = %v", a.Tail.Alpha)
	}
}

// Saturated traffic: every window busy must classify as NonBursty.
func TestClassifyNonBursty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	windows := make([]uint64, 5000)
	for i := range windows {
		windows[i] = uint64(20 + rng.Intn(10))
	}
	a, err := Analyze(windows)
	if err != nil {
		t.Fatal(err)
	}
	if a.Classify() != NonBursty {
		t.Errorf("verdict = %v", a.Classify())
	}
	if a.NonEmptyFraction != 1 {
		t.Errorf("non-empty = %v", a.NonEmptyFraction)
	}
	// One giant burst spanning the run.
	if a.Bursts != 1 {
		t.Errorf("bursts = %d", a.Bursts)
	}
}

func TestVerdictString(t *testing.T) {
	if Bursty.String() != "bursty" || NonBursty.String() != "non-bursty" {
		t.Error("verdict strings wrong")
	}
}

// Property: total lines are conserved between windows and bursts, and burst
// windows never overlap.
func TestExtractConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		windows := make([]uint64, len(raw))
		var want uint64
		for i, v := range raw {
			windows[i] = uint64(v % 4) // frequent zeros
			want += windows[i]
		}
		bursts := Extract(windows)
		var got uint64
		prevEnd := -1
		for _, b := range bursts {
			if b.StartWindow <= prevEnd {
				return false
			}
			if b.Windows < 1 || b.Lines == 0 {
				return false
			}
			// Boundaries must be zero-delimited.
			if b.StartWindow > 0 && windows[b.StartWindow-1] != 0 {
				return false
			}
			end := b.StartWindow + b.Windows
			if end < len(windows) && windows[end] != 0 {
				return false
			}
			prevEnd = end
			got += b.Lines
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
