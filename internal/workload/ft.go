package workload

import "repro/internal/trace"

// ftParams sizes the 3D FFT per class: a grid of nx*ny*nz complex values
// (16 bytes) double-buffered between two arrays.
type ftParams struct {
	nx, ny, nz int
	iterations int
}

var ftClasses = map[Class]ftParams{
	S: {nx: 16, ny: 16, nz: 16, iterations: 40},
	W: {nx: 32, ny: 16, nz: 16, iterations: 16},
	A: {nx: 32, ny: 32, nz: 32, iterations: 3},
	B: {nx: 64, ny: 32, nz: 32, iterations: 2},
	C: {nx: 64, ny: 64, nz: 32, iterations: 2},
}

func init() {
	registry["FT"] = kernel{
		desc:    "Spectral methods: fast Fourier transform",
		classes: []Class{S, W, A, B, C},
		build:   buildFT,
	}
}

const (
	ftU0 = iota
	ftU1
)

// cellAddr returns the address of grid cell (x, y, z) in array arr, with x
// contiguous.
func (p ftParams) cellAddr(arr int, x, y, z int) uint64 {
	idx := uint64(z)*uint64(p.nx)*uint64(p.ny) + uint64(y)*uint64(p.nx) + uint64(x)
	return base(arr) + idx*16
}

// buildFT builds the spectral-methods dwarf: a 3D fast Fourier transform
// applied dimension by dimension. The x-dimension pass streams
// sequentially, while the y and z passes stride by a row and a plane
// respectively — for grids beyond the LLC almost every strided access
// misses, but the butterflies within a pass are independent, so MLP stays
// high and contention lands between IS and SP, as the paper measures. The
// footprint covers the two complex grid buffers.
//
// The transform lines of each pass are split across threads, as the
// OpenMP NPB FT does. Each iteration runs the three dimensional passes
// (read from one buffer, write the other) followed by the evolve sweep.
func buildFT(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := ftClasses[class]
	footprint := uint64(p.nx) * uint64(p.ny) * uint64(p.nz) * 16 * 2
	iters := tune.scale(p.iterations)
	return footprint, func(threads, t int, w *trace.Writer) {
		src, dst := ftU0, ftU1
		// Per-element butterfly work: the transform along a length-n
		// line does n log n work over n elements.
		logN := func(n int) uint32 {
			w := uint32(1)
			for n > 1 {
				n >>= 1
				w++
			}
			return 2 * w
		}
		for it := 0; it < iters; it++ {
			// --- x-dimension pass: lines are (y, z) pairs. ---
			lines := p.ny * p.nz
			lo, hi := partition(lines, threads, t)
			wx := logN(p.nx)
			for l := lo; l < hi; l++ {
				y, z := l%p.ny, l/p.ny
				for x := 0; x < p.nx; x++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(src, x, y, z), Kind: trace.Load, Work: wx}) {
						return
					}
				}
				for x := 0; x < p.nx; x++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(dst, x, y, z), Kind: trace.Store, Work: 1}) {
						return
					}
				}
			}
			src, dst = dst, src
			// --- y-dimension pass: lines are (x, z) pairs; stride nx. ---
			lines = p.nx * p.nz
			lo, hi = partition(lines, threads, t)
			wy := logN(p.ny)
			for l := lo; l < hi; l++ {
				x, z := l%p.nx, l/p.nx
				for y := 0; y < p.ny; y++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(src, x, y, z), Kind: trace.Load, Work: wy}) {
						return
					}
				}
				for y := 0; y < p.ny; y++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(dst, x, y, z), Kind: trace.Store, Work: 1}) {
						return
					}
				}
			}
			src, dst = dst, src
			// --- z-dimension pass: lines are (x, y) pairs; stride
			// nx*ny (a whole plane). ---
			lines = p.nx * p.ny
			lo, hi = partition(lines, threads, t)
			wz := logN(p.nz)
			for l := lo; l < hi; l++ {
				x, y := l%p.nx, l/p.nx
				for z := 0; z < p.nz; z++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(src, x, y, z), Kind: trace.Load, Work: wz}) {
						return
					}
				}
				for z := 0; z < p.nz; z++ {
					if !w.Emit(trace.Ref{Addr: p.cellAddr(dst, x, y, z), Kind: trace.Store, Work: 1}) {
						return
					}
				}
			}
			src, dst = dst, src
			// --- evolve: pointwise multiply, sequential sweep over the
			// thread's share of cells. ---
			cells := p.nx * p.ny * p.nz
			clo, chi := partition(cells, threads, t)
			for i := clo; i < chi; i++ {
				if !w.Emit(trace.Ref{Addr: base(src) + uint64(i)*16, Kind: trace.Load, Work: 2}) {
					return
				}
				if !w.Emit(trace.Ref{Addr: base(src) + uint64(i)*16, Kind: trace.Store, Work: 0}) {
					return
				}
			}
			// Iteration barrier + checksum reduction.
			if !emitBarrier(w, t, it) {
				return
			}
		}
	}
}
