package workload

import "repro/internal/trace"

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

func init() {
	registry["EP"] = kernel{
		desc:    "Embarrassingly parallel: low data dependency, low memory",
		classes: []Class{S, W, A, B, C},
		build:   buildEP,
	}
}

const (
	epTable = iota
	epResults
)

// buildEP builds the embarrassingly parallel dwarf: long stretches of
// computation on register/cache-resident state, with periodic result
// flushes that produce small bursts of off-chip stores. The paper's
// low-contention reference case (Fig. 6). The footprint counts the
// per-thread tables (for a nominal machine-sized thread count of 48) and
// the global result area.
//
// Each thread runs an independent random-pair loop: Work-heavy iterations
// touching a small resident table, with a burst of result-line stores
// every flushEvery iterations.
func buildEP(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := epClasses[class]
	const nominalThreads = 48
	flushes := uint64(p.iterations/p.flushEvery + 1)
	footprint := nominalThreads * (p.tableBytes + flushes*uint64(p.flushLines)*64)
	iters := tune.scale(p.iterations)
	return footprint, func(_, t int, w *trace.Writer) {
		rng := uint64(seedFor("EP", class, t)) | 1
		tableBase := base(epTable) + uint64(t)<<24 // distinct table per thread
		nextResult := base(epResults) + uint64(t)<<24
		tableMask := p.tableBytes - 1 // tableBytes is a power of two
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
	}
}
