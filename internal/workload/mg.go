package workload

import "repro/internal/trace"

// mgParams sizes the multigrid kernel per class: the finest grid is n^3
// 8-byte cells; the V-cycle adds coarser grids of 1/8 the size each.
type mgParams struct {
	n          int // finest grid dimension (power of two)
	levels     int // V-cycle depth
	iterations int
}

var mgClasses = map[Class]mgParams{
	S: {n: 16, levels: 3, iterations: 40},
	W: {n: 32, levels: 4, iterations: 12},
	A: {n: 48, levels: 4, iterations: 3},
	B: {n: 64, levels: 5, iterations: 2},
	C: {n: 96, levels: 5, iterations: 2},
}

func init() {
	registry["MG"] = kernel{
		desc:    "Structured grid: multigrid V-cycle on a 3D mesh",
		classes: []Class{S, W, A, B, C},
		build:   buildMG,
	}
}

const (
	mgU = iota // solution grids, one region per level (level packed in bits)
	mgR        // residual grids
)

// gridBase returns the base address of array arr at V-cycle level l. Levels
// are spaced 4 GB apart inside the array's region.
func mgGridBase(arr, level int) uint64 {
	return base(arr) + uint64(level)<<32
}

// buildMG builds the multigrid dwarf (NPB MG): V-cycles over a hierarchy
// of 3D grids. The smoother is a 27-point stencil — affine neighbor loads
// with full memory-level parallelism — applied at every level, so the
// fine-grid sweeps stream like FT's passes while the coarse grids are
// cache-resident. MG is one of the six NPB programs the paper profiled;
// its contention falls between FT and CG. The footprint sums the grid
// hierarchy (u and r arrays per level).
//
// Each level's planes are partitioned across threads. One iteration is a
// V-cycle: smooth+restrict down the hierarchy, then prolongate+smooth
// back up, with a barrier after each iteration.
func buildMG(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := mgClasses[class]
	var footprint uint64
	for l, n := 0, p.n; l < p.levels && n >= 2; l, n = l+1, n/2 {
		footprint += uint64(n) * uint64(n) * uint64(n) * 8 * 2
	}
	iters := tune.scale(p.iterations)
	return footprint, func(threads, t int, w *trace.Writer) {
		// smooth sweeps level l's grid with a 27-point stencil: for
		// each cell, loads of the three adjacent planes (affine) and a
		// store of the updated cell.
		smooth := func(level, n int) bool {
			cells := n * n * n
			plane := uint64(n) * uint64(n) * 8
			lo, hi := partition(cells, threads, t)
			ub := mgGridBase(mgU, level)
			rb := mgGridBase(mgR, level)
			for i := lo; i < hi; i++ {
				addr := ub + uint64(i)*8
				// Stencil: own cell, the plane above and below (the
				// row/column neighbors share cache lines with the
				// central load and are omitted).
				if !w.Emit(trace.Ref{Addr: addr, Kind: trace.Load, Work: 4}) {
					return false
				}
				if !w.Emit(trace.Ref{Addr: addr + plane, Kind: trace.Load, Work: 2}) {
					return false
				}
				if addr >= ub+plane {
					if !w.Emit(trace.Ref{Addr: addr - plane, Kind: trace.Load, Work: 2}) {
						return false
					}
				}
				if !w.Emit(trace.Ref{Addr: rb + uint64(i)*8, Kind: trace.Store, Work: 3}) {
					return false
				}
			}
			return true
		}
		// transfer moves data between level l and l+1 (restrict) or
		// back (prolongate): a strided read of the fine grid and a
		// sequential write of the coarse one, or vice versa.
		transfer := func(fineLevel, fineN int, down bool) bool {
			coarseN := fineN / 2
			cells := coarseN * coarseN * coarseN
			lo, hi := partition(cells, threads, t)
			fb := mgGridBase(mgR, fineLevel)
			cb := mgGridBase(mgR, fineLevel+1)
			for i := lo; i < hi; i++ {
				// The coarse cell (x,y,z) maps to fine (2x,2y,2z).
				x := i % coarseN
				y := (i / coarseN) % coarseN
				z := i / (coarseN * coarseN)
				fi := uint64(2*z)*uint64(fineN)*uint64(fineN) + uint64(2*y)*uint64(fineN) + uint64(2*x)
				if down {
					if !w.Emit(trace.Ref{Addr: fb + fi*8, Kind: trace.Load, Work: 3}) {
						return false
					}
					if !w.Emit(trace.Ref{Addr: cb + uint64(i)*8, Kind: trace.Store, Work: 1}) {
						return false
					}
				} else {
					if !w.Emit(trace.Ref{Addr: cb + uint64(i)*8, Kind: trace.Load, Work: 1}) {
						return false
					}
					if !w.Emit(trace.Ref{Addr: fb + fi*8, Kind: trace.Store, Work: 3}) {
						return false
					}
				}
			}
			return true
		}
		for it := 0; it < iters; it++ {
			// Down-sweep: smooth then restrict at each level.
			n := p.n
			for l := 0; l < p.levels-1 && n >= 4; l++ {
				if !smooth(l, n) || !transfer(l, n, true) {
					return
				}
				n /= 2
			}
			// Bottom solve: a few smoothing passes on the coarsest grid.
			for pass := 0; pass < 2; pass++ {
				if !smooth(p.levels-1, n) {
					return
				}
			}
			// Up-sweep: prolongate then smooth.
			for l := p.levels - 2; l >= 0; l-- {
				fineN := p.n >> l
				if fineN < 4 {
					continue
				}
				if !transfer(l, fineN, false) {
					return
				}
				if !smooth(l, fineN) {
					return
				}
			}
			if !emitBarrier(w, t, it) {
				return
			}
		}
	}
}
