package workload

import "repro/internal/trace"

// cannealParams sizes the simulated-annealing netlist router per class:
// Elements netlist nodes of 64 bytes each, Moves swap evaluations per
// thread per temperature step.
type cannealParams struct {
	elements int
	moves    int
	steps    int
}

var cannealClasses = map[Class]cannealParams{
	SimSmall:  {elements: 8 << 10, moves: 2000, steps: 4},
	SimMedium: {elements: 16 << 10, moves: 4000, steps: 6},
	SimLarge:  {elements: 32 << 10, moves: 6000, steps: 8},
	Native:    {elements: 128 << 10, moves: 8000, steps: 8},
}

func init() {
	registry["canneal"] = kernel{
		desc:    "Simulated annealing: pointer-chasing netlist routing",
		classes: []Class{SimSmall, SimMedium, SimLarge, Native},
		build:   buildCanneal,
	}
}

const cannealNetlist = 0

// buildCanneal builds PARSEC's cache-aware simulated annealing for chip
// routing: a swap evaluation loads two random netlist elements and chases
// their net pointers to compute the routing-cost delta. Almost every
// access is a data-dependent pointer dereference over a multi-megabyte
// netlist — the archetypal low-MLP random-access program, the opposite
// extreme from SP's affine streams. Contention stays moderate despite
// heavy traffic because the dependent chain self-throttles each thread.
// The footprint covers the 64-byte netlist elements.
//
// Each thread runs annealing moves: each move picks two pseudo-random
// elements (dependent loads — the address comes from the RNG state and the
// element's net pointers), follows two neighbour pointers from each, and
// commits the swap with two stores. Temperature steps end with a barrier,
// as the real program's synchronized temperature updates do.
func buildCanneal(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := cannealClasses[class]
	footprint := uint64(p.elements) * 64
	steps := tune.scale(p.steps)
	return footprint, func(_, t int, w *trace.Writer) {
		rng := uint64(seedFor("canneal", class, t)) | 1
		elem := func() uint64 {
			rng = xorshift64(rng)
			return base(cannealNetlist) + (rng%uint64(p.elements))*64
		}
		for step := 0; step < steps; step++ {
			for move := 0; move < p.moves; move++ {
				// Load both swap candidates.
				for pick := 0; pick < 2; pick++ {
					if !w.Emit(trace.Ref{Addr: elem(), Kind: trace.Load, Dep: true, Work: 3}) {
						return
					}
					// Chase two of the element's net pointers.
					for hop := 0; hop < 2; hop++ {
						if !w.Emit(trace.Ref{Addr: elem(), Kind: trace.Load, Dep: true, Work: 2}) {
							return
						}
					}
				}
				// Commit the swap (stores drain via the write buffer).
				if !w.Emit(trace.Ref{Addr: elem(), Kind: trace.Store, Work: 4}) {
					return
				}
				if !w.Emit(trace.Ref{Addr: elem(), Kind: trace.Store, Work: 4}) {
					return
				}
			}
			// Temperature update: synchronized across threads.
			if !emitBarrier(w, t, step) {
				return
			}
		}
	}
}
