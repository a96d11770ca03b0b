package workload

import (
	"fmt"

	"repro/internal/trace"
)

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

// canneal is PARSEC's cache-aware simulated annealing for chip routing: a
// swap evaluation loads two random netlist elements and chases their net
// pointers to compute the routing-cost delta. Almost every access is a
// data-dependent pointer dereference over a multi-megabyte netlist — the
// archetypal low-MLP random-access program, the opposite extreme from SP's
// affine streams. Contention stays moderate despite heavy traffic because
// the dependent chain self-throttles each thread.
type canneal struct {
	class Class
	p     cannealParams
	tune  Tuning
}

func init() {
	register("canneal", "Simulated annealing: pointer-chasing netlist routing",
		[]Class{SimSmall, SimMedium, SimLarge, Native},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := cannealClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload canneal: no class %q", class)
			}
			return &canneal{class: class, p: p, tune: tune}, nil
		})
}

func (c *canneal) Name() string        { return "canneal" }
func (c *canneal) Class() Class        { return c.class }
func (c *canneal) Description() string { return Describe("canneal") }

// FootprintBytes covers the 64-byte netlist elements.
func (c *canneal) FootprintBytes() uint64 {
	return uint64(c.p.elements) * 64
}

const cannealNetlist = 0

// Streams runs per-thread annealing moves: each move picks two pseudo-
// random elements (dependent loads — the address comes from the RNG state
// and the element's net pointers), follows two neighbour pointers from
// each, and commits the swap with two stores. Temperature steps end with a
// barrier, as the real program's synchronized temperature updates do.
func (c *canneal) Streams(threads int) []trace.Stream {
	steps := c.tune.scale(c.p.steps)
	p := c.p
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		tt := t
		seed := uint64(seedFor("canneal", c.class, t)) | 1
		streams[t] = trace.Gen(func(w *trace.Writer) {
			rng := seed
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
				if !emitBarrier(w, tt, step) {
					return
				}
			}
		})
	}
	return streams
}
