package workload

import "repro/internal/trace"

// fluidParams sizes the SPH fluid simulation per class: a 3D grid of cells
// (each holding a handful of particles, 128 bytes of state per cell here)
// swept with neighbour interactions each frame.
type fluidParams struct {
	nx, ny, nz int
	frames     int
}

var fluidClasses = map[Class]fluidParams{
	SimSmall:  {nx: 16, ny: 16, nz: 16, frames: 12},
	SimMedium: {nx: 24, ny: 24, nz: 16, frames: 12},
	SimLarge:  {nx: 32, ny: 32, nz: 24, frames: 10},
	Native:    {nx: 64, ny: 64, nz: 32, frames: 6},
}

func init() {
	registry["fluidanimate"] = kernel{
		desc:    "SPH fluid simulation: grid-neighbour particle sweeps",
		classes: []Class{SimSmall, SimMedium, SimLarge, Native},
		build:   buildFluid,
	}
}

const (
	fluidCells     = 0
	fluidCellBytes = 128
)

// cellAddr returns the state address of cell (x, y, z).
func (p fluidParams) cellAddr(x, y, z int) uint64 {
	idx := uint64(z)*uint64(p.nx)*uint64(p.ny) + uint64(y)*uint64(p.nx) + uint64(x)
	return base(fluidCells) + idx*fluidCellBytes
}

// buildFluid builds PARSEC's fluidanimate: smoothed-particle hydrodynamics
// on a uniform cell grid. Each frame sweeps the cells; a cell interacts
// with its face neighbours (affine addresses, independent loads — decent
// MLP), and frames are separated by barriers. Its footprint, the
// cell-state grid, grows to several times the LLC at native size, giving
// FT-like streaming contention with a per-frame phase structure.
//
// The grid is partitioned by z-slabs (fluidanimate's spatial
// decomposition). Each frame has two passes — density and force — each
// visiting every cell of the thread's slab and its six face neighbours,
// then a barrier.
func buildFluid(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := fluidClasses[class]
	footprint := uint64(p.nx) * uint64(p.ny) * uint64(p.nz) * fluidCellBytes
	frames := tune.scale(p.frames)
	return footprint, func(threads, t int, w *trace.Writer) {
		zlo, zhi := partition(p.nz, threads, t)
		sweep := func() bool {
			for z := zlo; z < zhi; z++ {
				for y := 0; y < p.ny; y++ {
					for x := 0; x < p.nx; x++ {
						// Own cell: load + store.
						if !w.Emit(trace.Ref{Addr: p.cellAddr(x, y, z), Kind: trace.Load, Work: 6}) {
							return false
						}
						// Face neighbours in y and z reach other rows
						// and planes (the x neighbours share the cache
						// line with the own cell).
						if y+1 < p.ny {
							if !w.Emit(trace.Ref{Addr: p.cellAddr(x, y+1, z), Kind: trace.Load, Work: 3}) {
								return false
							}
						}
						if z+1 < p.nz {
							if !w.Emit(trace.Ref{Addr: p.cellAddr(x, y, z+1), Kind: trace.Load, Work: 3}) {
								return false
							}
						}
						if !w.Emit(trace.Ref{Addr: p.cellAddr(x, y, z), Kind: trace.Store, Work: 4}) {
							return false
						}
					}
				}
			}
			return true
		}
		for frame := 0; frame < frames; frame++ {
			// Density pass, then force pass, each globally synchronized.
			if !sweep() {
				return
			}
			if !emitBarrier(w, t, 2*frame) {
				return
			}
			if !sweep() {
				return
			}
			if !emitBarrier(w, t, 2*frame+1) {
				return
			}
		}
	}
}
