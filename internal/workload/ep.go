package workload

import (
	"fmt"

	"repro/internal/trace"
)

// epParams sizes the embarrassingly parallel kernel per class: EP generates
// batches of Gaussian random pairs with essentially no shared data — its
// per-thread state is a handful of cache lines, so off-chip traffic is
// limited to rare result flushes regardless of class.
type epParams struct {
	iterations int // random pairs per thread
	tableBytes uint64
	flushEvery int // iterations between result-buffer flushes
	flushLines int // cache lines written per flush
}

var epClasses = map[Class]epParams{
	S: {iterations: 4000, tableBytes: 4 << 10, flushEvery: 256, flushLines: 16},
	W: {iterations: 12000, tableBytes: 4 << 10, flushEvery: 256, flushLines: 16},
	A: {iterations: 24000, tableBytes: 8 << 10, flushEvery: 256, flushLines: 16},
	B: {iterations: 40000, tableBytes: 8 << 10, flushEvery: 256, flushLines: 16},
	C: {iterations: 60000, tableBytes: 16 << 10, flushEvery: 256, flushLines: 16},
}

// ep is the embarrassingly parallel dwarf: long stretches of computation on
// register/cache-resident state, with periodic result flushes that produce
// small bursts of off-chip stores. The paper's low-contention reference
// case (Fig. 6).
type ep struct {
	class Class
	p     epParams
	tune  Tuning
}

func init() {
	register("EP", "Embarrassingly parallel: low data dependency, low memory",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := epClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload EP: no class %q", class)
			}
			return &ep{class: class, p: p, tune: tune}, nil
		})
}

func (e *ep) Name() string        { return "EP" }
func (e *ep) Class() Class        { return e.class }
func (e *ep) Description() string { return Describe("EP") }

// FootprintBytes counts the per-thread tables (for a nominal machine-sized
// thread count of 48) and the global result area.
func (e *ep) FootprintBytes() uint64 {
	const nominalThreads = 48
	flushes := uint64(e.p.iterations/e.p.flushEvery + 1)
	return nominalThreads * (e.p.tableBytes + flushes*uint64(e.p.flushLines)*64)
}

const (
	epTable = iota
	epResults
)

// Streams gives each thread an independent random-pair loop: Work-heavy
// iterations touching a small resident table, with a burst of result-line
// stores every flushEvery iterations.
func (e *ep) Streams(threads int) []trace.Stream {
	iters := e.tune.scale(e.p.iterations)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		seed := uint64(seedFor("EP", e.class, t)) | 1
		tableBase := base(epTable) + uint64(t)<<24 // distinct table per thread
		resultBase := base(epResults) + uint64(t)<<24
		tableMask := e.p.tableBytes - 1 // tableBytes is a power of two
		p := e.p
		streams[t] = trace.Gen(func(w *trace.Writer) {
			rng := seed
			nextResult := resultBase
			for i := 0; i < iters; i++ {
				// The random-pair computation: ~100 cycles of arithmetic
				// plus one table lookup that stays cache-resident.
				rng = xorshift64(rng)
				off := (rng & tableMask) &^ 7
				if !w.Emit(trace.Ref{Addr: tableBase + off, Kind: trace.Load, Work: 100}) {
					return
				}
				if (i+1)%p.flushEvery == 0 {
					// Flush accumulated results: a short burst of streaming
					// stores to fresh lines.
					for l := 0; l < p.flushLines; l++ {
						if !w.Emit(trace.Ref{Addr: nextResult, Kind: trace.Store, Work: 1}) {
							return
						}
						nextResult += 64
					}
				}
			}
		})
	}
	return streams
}
