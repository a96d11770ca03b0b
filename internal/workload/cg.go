package workload

import "repro/internal/trace"

// cgParams sizes the conjugate-gradient solver per class. Rows follow the
// NPB CG geometry (paper Table III) scaled by machine.CacheScale so the
// footprint:LLC ratios land in the same regimes: S and W cache-resident, A
// around the LLC, B and C thrashing.
type cgParams struct {
	rows       int // matrix dimension N
	nnzPerRow  int // average nonzeros per row
	iterations int
}

var cgClasses = map[Class]cgParams{
	S: {rows: 1024, nnzPerRow: 8, iterations: 60},
	W: {rows: 2048, nnzPerRow: 8, iterations: 20},
	A: {rows: 8192, nnzPerRow: 10, iterations: 4},
	B: {rows: 49152, nnzPerRow: 12, iterations: 2},
	C: {rows: 131072, nnzPerRow: 14, iterations: 2},
}

func init() {
	registry["CG"] = kernel{
		desc:    "Sparse linear algebra: data with many 0 values",
		classes: []Class{S, W, A, B, C},
		build:   buildCG,
	}
}

// Array ids within the workload's address space.
const (
	cgAVal = iota
	cgACol
	cgVecX
	cgVecP
	cgVecQ
	cgVecR
	cgVecZ
)

// rowLen returns the deterministic nonzero count of a row: a hash spreads
// rows between 50% and 150% of the average, like NPB's randomly generated
// sparse structure.
func cgRowLen(row, avg int) int {
	h := uint64(row)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	h ^= h >> 29
	spread := int(h % uint64(avg+1)) // 0..avg
	return avg/2 + spread            // avg/2 .. 3avg/2
}

// xorshift64 is the per-row column-index generator: cheap, deterministic,
// and reproducible across iterations (the matrix structure is fixed).
func xorshift64(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// buildCG builds the sparse linear algebra dwarf: power iteration with a
// conjugate-gradient style sparse matrix-vector product at its heart. Its
// memory signature is the paper's "moderate contention" case: streaming
// reads of the matrix values (independent, high MLP) interleaved with
// dependent random gathers of the x vector (low MLP), plus streaming vector
// updates. The footprint covers the CSR matrix (8-byte values, 4-byte
// column indices) and five N-length solution/direction vectors.
//
// The rows are partitioned statically across threads (OpenMP static
// schedule) and each thread replays the CG iteration structure:
//
//	for it in iterations:
//	  q = A*p        (stream aVal/aCol, gather p[col], store q)
//	  vector phase   (four streaming sweeps over the thread's slices)
func buildCG(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := cgClasses[class]
	footprint := uint64(p.rows)*uint64(p.nnzPerRow)*12 + uint64(p.rows)*5*8
	iters := tune.scale(p.iterations)
	n := uint64(p.rows)
	avg := p.nnzPerRow
	return footprint, func(threads, t int, w *trace.Writer) {
		lo, hi := partition(p.rows, threads, t)
		// Precompute the thread's starting nonzero offset so aVal/aCol
		// addresses are globally consistent.
		startNNZ := uint64(0)
		for r := 0; r < lo; r++ {
			startNNZ += uint64(cgRowLen(r, avg))
		}
		for it := 0; it < iters; it++ {
			// --- SpMV: q[i] = sum_j A[i,j] * p[col[i,j]] ---
			k := startNNZ
			for row := lo; row < hi; row++ {
				rl := cgRowLen(row, avg)
				seed := uint64(row)*0xBF58476D1CE4E5B9 + 1
				for j := 0; j < rl; j++ {
					// Column index: fixed pseudo-random structure.
					seed = xorshift64(seed)
					col := seed % n
					// Stream the matrix value (independent, 2-cycle FMA).
					if !w.Emit(trace.Ref{Addr: base(cgAVal) + k*8, Kind: trace.Load, Work: 2}) {
						return
					}
					// Stream the column index (packed int32).
					if !w.Emit(trace.Ref{Addr: base(cgACol) + k*4, Kind: trace.Load, Work: 0}) {
						return
					}
					// Gather p[col]: address depends on the index load.
					if !w.Emit(trace.Ref{Addr: base(cgVecP) + col*8, Kind: trace.Load, Dep: true, Work: 0}) {
						return
					}
					k++
				}
				// Store the accumulated q[row].
				if !w.Emit(trace.Ref{Addr: base(cgVecQ) + uint64(row)*8, Kind: trace.Store, Work: 2}) {
					return
				}
			}
			// --- Vector phase: z += alpha p; r -= alpha q; rho = r.r;
			// p = r + beta p --- four streaming sweeps over the
			// thread's slice.
			for _, sweep := range [][2]int{
				{cgVecZ, cgVecP}, {cgVecR, cgVecQ}, {cgVecR, cgVecR}, {cgVecP, cgVecR},
			} {
				for i := lo; i < hi; i++ {
					if !w.Emit(trace.Ref{Addr: base(sweep[1]) + uint64(i)*8, Kind: trace.Load, Work: 1}) {
						return
					}
					if !w.Emit(trace.Ref{Addr: base(sweep[0]) + uint64(i)*8, Kind: trace.Store, Work: 1}) {
						return
					}
				}
			}
			// Iteration barrier + dot-product reductions.
			if !emitBarrier(w, t, it) {
				return
			}
		}
	}
}
