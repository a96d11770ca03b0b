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
