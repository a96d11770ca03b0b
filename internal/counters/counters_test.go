package counters

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestFromResult(t *testing.T) {
	r := sim.Result{
		TotalCycles:     1000,
		WorkCycles:      600,
		StallCycles:     400,
		MemStallCycles:  300,
		Instructions:    900,
		LLCMisses:       42,
		RemoteRequests:  7,
		OffChipRequests: 42,
	}
	s := FromResult(r)
	if s[TotCyc] != 1000 || s[ResStl] != 400 || s[LLCMisses] != 42 {
		t.Errorf("set = %v", s)
	}
	// The paper's derivation: work = total - stall.
	if s[WorkCyc] != s[TotCyc]-s[ResStl] {
		t.Error("work-cycle identity violated")
	}
	if s[RemoteReq] != 7 || s[MemStl] != 300 || s[TotIns] != 900 {
		t.Errorf("set = %v", s)
	}
}

func TestEventsSorted(t *testing.T) {
	s := FromResult(sim.Result{})
	evs := s.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i] < evs[i-1] {
			t.Fatalf("events unsorted: %v", evs)
		}
	}
	if len(evs) != 7 {
		t.Errorf("events = %v", evs)
	}
}

func TestStringFormat(t *testing.T) {
	s := Set{TotCyc: 5}
	out := s.String()
	if !strings.Contains(out, "PAPI_TOT_CYC") || !strings.Contains(out, "5") {
		t.Errorf("output = %q", out)
	}
}

func TestAccumulatorMatchesSet(t *testing.T) {
	threads := []sim.ThreadStats{
		{Work: 600, Stall: 400, MemStall: 300, Instructions: 900, OffChip: 42, Remote: 7},
		{Work: 200, Stall: 300, MemStall: 100, Instructions: 450, OffChip: 11, Remote: 3},
	}
	var acc Accumulator
	want := Set{}
	for _, th := range threads {
		acc.AddThread(th)
		// Each snapshot read as a one-thread run; FromResult fixes which
		// event every field belongs to.
		one := FromResult(sim.Result{TotalCycles: th.Cycles(), WorkCycles: th.Work,
			StallCycles: th.Stall, MemStallCycles: th.MemStall, Instructions: th.Instructions,
			LLCMisses: th.OffChip, RemoteRequests: th.Remote})
		for e, v := range one {
			want[e] += v
		}
	}
	if acc.Runs() != 2 {
		t.Errorf("runs = %d", acc.Runs())
	}
	// The batched totals must equal event-wise summation of the two Sets.
	got := acc.Set()
	for e, v := range want {
		if got[e] != v {
			t.Errorf("%s = %d, want %d", e, got[e], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("events: got %d, want %d", len(got), len(want))
	}
}

func TestAccumulatorThreads(t *testing.T) {
	var acc Accumulator
	acc.AddThread(sim.ThreadStats{Work: 60, Stall: 40, MemStall: 30,
		Instructions: 90, OffChip: 4, Remote: 1})
	acc.AddThread(sim.ThreadStats{Work: 20, Stall: 30, MemStall: 10,
		Instructions: 45, OffChip: 1, Remote: 0})
	if s := acc.Set(); s[TotCyc] != 150 || s[WorkCyc] != 80 || s[LLCMisses] != 5 || s[RemoteReq] != 1 {
		t.Errorf("set = %v", s)
	}
}

// TestAccumulatorZeroAlloc pins the batching contract: folding snapshots
// in does not allocate (the Set materialization at the end is the only
// map).
func TestAccumulatorZeroAlloc(t *testing.T) {
	th := sim.ThreadStats{Work: 60, Stall: 40}
	var acc Accumulator
	avg := testing.AllocsPerRun(100, func() {
		acc.AddThread(th)
	})
	if avg != 0 {
		t.Errorf("allocs per batched update = %v, want 0", avg)
	}
}
