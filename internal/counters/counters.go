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
