package workload

import "repro/internal/trace"

// scParams sizes the streamcluster kernel per class, following the PARSEC
// input sets: points of dim 4-byte coordinates arriving in blocks, clustered
// against k candidate centers.
type scParams struct {
	points  int
	dim     int
	centers int
	passes  int // evaluation passes over the block (pgain iterations)
}

var scClasses = map[Class]scParams{
	SimSmall:  {points: 4 << 10, dim: 32, centers: 10, passes: 4},
	SimMedium: {points: 8 << 10, dim: 32, centers: 10, passes: 6},
	SimLarge:  {points: 16 << 10, dim: 32, centers: 15, passes: 8},
	Native:    {points: 64 << 10, dim: 32, centers: 20, passes: 8},
}

func init() {
	registry["streamcluster"] = kernel{
		desc:    "Online clustering: k-median of streaming points",
		classes: []Class{SimSmall, SimMedium, SimLarge, Native},
		build:   buildStreamcluster,
	}
}

const (
	scPoints = iota
	scCosts
	scCenters
)

// buildStreamcluster builds PARSEC's streamcluster: online k-median
// clustering of streaming points. Each pass reads every point (sequential,
// high MLP) and computes distances to the cache-resident centers — a
// compute-per-byte ratio high enough that, like x264, its large working
// set produces only moderate off-chip traffic. One of the four PARSEC
// programs the paper profiled. The footprint covers the point block,
// per-point assignment costs, and the centers.
//
// The point block is partitioned across threads. Each pass streams the
// thread's points (dim coordinates each), computes distances against every
// center (resident; one representative load per center), and updates the
// point's cost record; passes are separated by barriers, as pgain's
// evaluate-and-commit phases are in the real program.
func buildStreamcluster(class Class, tune Tuning) (uint64, func(threads, t int, w *trace.Writer)) {
	p := scClasses[class]
	footprint := uint64(p.points)*uint64(p.dim)*4 + // coordinates
		uint64(p.points)*8 + // cost/assignment per point
		uint64(p.centers)*uint64(p.dim)*4
	passes := tune.scale(p.passes)
	pointBytes := uint64(p.dim) * 4
	return footprint, func(threads, t int, w *trace.Writer) {
		lo, hi := partition(p.points, threads, t)
		for pass := 0; pass < passes; pass++ {
			for pt := lo; pt < hi; pt++ {
				// Stream the point's coordinates line by line.
				baseAddr := base(scPoints) + uint64(pt)*pointBytes
				for off := uint64(0); off < pointBytes; off += 64 {
					if !w.Emit(trace.Ref{Addr: baseAddr + off, Kind: trace.Load, Work: 6}) {
						return
					}
				}
				// Distance to each candidate center: centers stay
				// cache-resident; the distance computation dominates.
				for c := 0; c < p.centers; c++ {
					addr := base(scCenters) + uint64(c)*pointBytes
					if !w.Emit(trace.Ref{Addr: addr, Kind: trace.Load, Work: uint32(3 * p.dim)}) {
						return
					}
				}
				// Update the point's best cost (read-modify-write).
				costAddr := base(scCosts) + uint64(pt)*8
				if !w.Emit(trace.Ref{Addr: costAddr, Kind: trace.Store, Work: 2}) {
					return
				}
			}
			if !emitBarrier(w, t, pass) {
				return
			}
		}
	}
}
