package workload

import (
	"fmt"

	"repro/internal/trace"
)

// spParams sizes the pentadiagonal solver per class: an n^3 grid with five
// solution components per cell (40 bytes), plus right-hand-side and
// factorization workspace of the same shape.
type spParams struct {
	n          int
	iterations int
}

var spClasses = map[Class]spParams{
	S: {n: 8, iterations: 60},
	W: {n: 14, iterations: 20},
	A: {n: 20, iterations: 4},
	B: {n: 30, iterations: 2},
	C: {n: 40, iterations: 2},
}

// sp is the structured-grid dwarf: an ADI pentadiagonal solver that sweeps
// the 3D grid along all three dimensions every iteration (paper section V:
// "the pentadiagonal solver SP accesses memories along all dimensions of a
// 3D space; such complex data access patterns lead to large number of cache
// misses"). The y and z sweeps stride by a row and a plane, so for grids
// beyond the LLC almost every access misses; the addresses are affine, so
// the misses issue at full memory-level parallelism and saturate the
// memory controllers. SP is the paper's highest-contention program.
type sp struct {
	class Class
	p     spParams
	tune  Tuning
}

func init() {
	register("SP", "Structured grid: pentadiagonal solver",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := spClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload SP: no class %q", class)
			}
			return &sp{class: class, p: p, tune: tune}, nil
		})
}

func (s *sp) Name() string        { return "SP" }
func (s *sp) Class() Class        { return s.class }
func (s *sp) Description() string { return Describe("SP") }

// FootprintBytes covers solution, RHS and factorization arrays: three n^3
// grids of 40-byte cells.
func (s *sp) FootprintBytes() uint64 {
	cells := uint64(s.p.n) * uint64(s.p.n) * uint64(s.p.n)
	return cells * 40 * 3
}

const (
	spU = iota
	spRHS
	spLHS
)

const spCellBytes = 40

// cellAddr returns the address of cell (x, y, z) in array arr, with x
// contiguous.
func (s *sp) cellAddr(arr, x, y, z int) uint64 {
	n := uint64(s.p.n)
	idx := uint64(z)*n*n + uint64(y)*n + uint64(x)
	return base(arr) + idx*spCellBytes
}

// Streams reproduces the SP iteration: compute_rhs (sequential streaming),
// then x_solve, y_solve and z_solve, each a forward elimination followed by
// back substitution along every grid line of that dimension, partitioned
// across threads by line.
func (s *sp) Streams(threads int) []trace.Stream {
	iters := s.tune.scale(s.p.iterations)
	n := s.p.n
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		tt := t
		streams[t] = trace.Gen(func(w *trace.Writer) {
			// solveLine emits the accesses of the pentadiagonal recurrence
			// along one grid line: forward elimination reading LHS and
			// updating RHS, then back substitution updating U. The
			// computation is a serial recurrence, but the ADDRESSES are
			// affine in the line index, so the loads are issued
			// independently (the core/prefetcher runs ahead) — SP floods
			// the memory system with strided misses at full memory-level
			// parallelism, which is exactly why the paper measures it as
			// the highest-contention program. cellAt maps the 1D line
			// position to a cell address in the given array.
			solveLine := func(cellAt func(arr, i int) uint64) bool {
				for i := 0; i < n; i++ {
					if !w.Emit(trace.Ref{Addr: cellAt(spLHS, i), Kind: trace.Load, Work: 5}) {
						return false
					}
					if !w.Emit(trace.Ref{Addr: cellAt(spRHS, i), Kind: trace.Store, Work: 3}) {
						return false
					}
				}
				// Back substitution, reverse order.
				for i := n - 1; i >= 0; i-- {
					if !w.Emit(trace.Ref{Addr: cellAt(spRHS, i), Kind: trace.Load, Work: 4}) {
						return false
					}
					if !w.Emit(trace.Ref{Addr: cellAt(spU, i), Kind: trace.Store, Work: 2}) {
						return false
					}
				}
				return true
			}
			for it := 0; it < iters; it++ {
				// --- compute_rhs: sequential sweep of the whole grid. ---
				cells := n * n * n
				clo, chi := partition(cells, threads, tt)
				for i := clo; i < chi; i++ {
					if !w.Emit(trace.Ref{Addr: base(spU) + uint64(i)*spCellBytes, Kind: trace.Load, Work: 3}) {
						return
					}
					if !w.Emit(trace.Ref{Addr: base(spRHS) + uint64(i)*spCellBytes, Kind: trace.Store, Work: 2}) {
						return
					}
				}
				// --- x_solve: lines along x (contiguous). ---
				lines := n * n
				lo, hi := partition(lines, threads, tt)
				for l := lo; l < hi; l++ {
					y, z := l%n, l/n
					if !solveLine(func(arr, i int) uint64 { return s.cellAddr(arr, i, y, z) }) {
						return
					}
				}
				// --- y_solve: lines along y (stride n cells). ---
				lo, hi = partition(lines, threads, tt)
				for l := lo; l < hi; l++ {
					x, z := l%n, l/n
					if !solveLine(func(arr, i int) uint64 { return s.cellAddr(arr, x, i, z) }) {
						return
					}
				}
				// --- z_solve: lines along z (stride n^2 cells — a plane). ---
				lo, hi = partition(lines, threads, tt)
				for l := lo; l < hi; l++ {
					x, y := l%n, l/n
					if !solveLine(func(arr, i int) uint64 { return s.cellAddr(arr, x, y, i) }) {
						return
					}
				}
				// ADI iteration barrier + residual reduction.
				if !emitBarrier(w, tt, it) {
					return
				}
			}
		})
	}
	return streams
}
