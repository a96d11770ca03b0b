// Package counters provides a PAPI-style hardware-counter facade over
// simulation results, mirroring the events the paper measures (section
// III-A): PAPI_TOT_CYC, PAPI_TOT_INS, PAPI_RES_STL, PAPI_L2_TCM and the
// native LLC_MISSES/L3_CACHE_MISSES events. Work cycles are derived exactly
// as in the paper: total cycles minus stall cycles.
package counters

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Event names a hardware counter.
type Event string

// The counter set used throughout the paper.
const (
	// TotCyc is PAPI_TOT_CYC: total cycles.
	TotCyc Event = "PAPI_TOT_CYC"
	// TotIns is PAPI_TOT_INS: retired instructions.
	TotIns Event = "PAPI_TOT_INS"
	// ResStl is PAPI_RES_STL: resource stall cycles.
	ResStl Event = "PAPI_RES_STL"
	// LLCMisses is the native last-level cache miss event (LLC_MISSES on
	// Intel, L3_CACHE_MISSES on AMD).
	LLCMisses Event = "LLC_MISSES"
	// WorkCyc is the derived work-cycle count (TOT_CYC - RES_STL).
	WorkCyc Event = "WORK_CYC"
	// MemStl is the contention-relevant subset of stalls: cycles waiting on
	// off-chip requests.
	MemStl Event = "MEM_STL"
	// RemoteReq counts off-chip requests served by a remote NUMA node.
	RemoteReq Event = "REMOTE_REQ"
)

// Set is a snapshot of counter values, as papiex would report per run.
type Set map[Event]uint64

// FromResult converts a simulation result into the paper's counter set.
func FromResult(r sim.Result) Set {
	return Set{
		TotCyc:    r.TotalCycles,
		TotIns:    r.Instructions,
		ResStl:    r.StallCycles,
		LLCMisses: r.LLCMisses,
		WorkCyc:   r.WorkCycles,
		MemStl:    r.MemStallCycles,
		RemoteReq: r.RemoteRequests,
	}
}

// Events lists the events present, sorted by name.
func (s Set) Events() []Event {
	var evs []Event
	for e := range s {
		evs = append(evs, e)
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	return evs
}

// String renders the set in papiex-like "EVENT value" lines.
func (s Set) String() string {
	out := ""
	for _, e := range s.Events() {
		out += fmt.Sprintf("%-16s %d\n", e, s[e])
	}
	return out
}

// byIndex lists the paper's events in accumulator slot order.
var byIndex = [...]Event{TotCyc, TotIns, ResStl, LLCMisses, WorkCyc, MemStl, RemoteReq}

// Accumulator totals many per-thread counter snapshots without the
// per-update map hashing and allocation a Set would cost: the values live
// in a fixed array indexed by event slot. Aggregation loops add into an
// Accumulator and materialize a Set once at the end.
//
// The zero value is an empty accumulator.
type Accumulator struct {
	v [len(byIndex)]uint64
	n uint64
}

// AddThread folds one per-thread counter snapshot into the accumulator.
//
//simcheck:hotpath
func (a *Accumulator) AddThread(t sim.ThreadStats) {
	a.v[0] += t.Cycles()
	a.v[1] += t.Instructions
	a.v[2] += t.Stall
	a.v[3] += t.OffChip
	a.v[4] += t.Work
	a.v[5] += t.MemStall
	a.v[6] += t.Remote
	a.n++
}

// Runs returns how many snapshots were folded in.
func (a *Accumulator) Runs() uint64 { return a.n }

// Set materializes the accumulated totals as a Set.
func (a *Accumulator) Set() Set {
	s := make(Set, len(byIndex))
	for i, e := range byIndex {
		s[e] = a.v[i]
	}
	return s
}
