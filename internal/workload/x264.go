package workload

import (
	"fmt"

	"repro/internal/trace"
)

// x264Params sizes the H.264-style encoder per class, mirroring the PARSEC
// input sets (paper Table III) scaled by machine.CacheScale: the sim*
// inputs share one small resolution with growing frame counts; native has a
// much larger frame.
type x264Params struct {
	width, height int // luma plane in bytes (1 byte/pixel)
	frames        int
	candidates    int // motion-search positions per macroblock
}

var x264Classes = map[Class]x264Params{
	SimSmall:  {width: 160, height: 96, frames: 8, candidates: 8},
	SimMedium: {width: 160, height: 96, frames: 24, candidates: 8},
	SimLarge:  {width: 160, height: 96, frames: 64, candidates: 8},
	Native:    {width: 960, height: 544, frames: 8, candidates: 8},
}

// x264 is the PARSEC video encoder: per 16x16 macroblock, it loads the
// current block, runs a diamond motion search over candidate positions in
// the reference frame, and writes the encoded block. Reference-frame rows
// are shared between neighboring candidates and macroblocks, so even the
// native input — whose frames far exceed the LLC — touches each line only
// about once per frame: a large working set with few misses, the paper's
// explanation for x264's low contention.
type x264 struct {
	class Class
	p     x264Params
	tune  Tuning
}

func init() {
	register("x264", "Video encoding using H264 codec",
		[]Class{SimSmall, SimMedium, SimLarge, Native},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := x264Classes[class]
			if !ok {
				return nil, fmt.Errorf("workload x264: no class %q", class)
			}
			return &x264{class: class, p: p, tune: tune}, nil
		})
}

func (x *x264) Name() string        { return "x264" }
func (x *x264) Class() Class        { return x.class }
func (x *x264) Description() string { return Describe("x264") }

// FootprintBytes covers the reference frame, current frame, output plane
// and one in-flight input frame.
func (x *x264) FootprintBytes() uint64 {
	return uint64(x.p.width) * uint64(x.p.height) * 4
}

const (
	x264Ref = iota
	x264Cur
	x264Out
	x264Input
)

// pixAddr returns the address of pixel (px, py) in plane arr.
func (x *x264) pixAddr(arr, px, py int) uint64 {
	return base(arr) + uint64(py)*uint64(x.p.width) + uint64(px)
}

// diamond is the small-diamond candidate offset pattern around the
// co-located macroblock, extended by seeded pseudo-random refinements.
var diamond = [][2]int{{0, 0}, {-16, 0}, {16, 0}, {0, -16}, {0, 16}, {-8, -8}, {8, 8}, {-8, 8}, {8, -8}, {-24, 0}, {24, 0}, {0, -24}}

// Streams partitions macroblock rows across threads per frame (x264's
// wavefront-style intra-frame parallelism). For every macroblock: load the
// 16 current-frame rows, evaluate `candidates` positions (16 reference rows
// each, independent loads — SAD has full MLP), then store 16 output rows.
func (x *x264) Streams(threads int) []trace.Stream {
	frames := x.tune.scale(x.p.frames)
	p := x.p
	mbCols := p.width / 16
	mbRows := p.height / 16
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		tt := t
		seed := uint64(seedFor("x264", x.class, t)) | 1
		streams[t] = trace.Gen(func(w *trace.Writer) {
			rng := seed
			frameBytes := uint64(p.width) * uint64(p.height)
			for f := 0; f < frames; f++ {
				// Per-frame encoding activity: the fraction of macroblocks
				// with enough motion to need fresh input data varies from
				// frame to frame (P-frames copy most blocks; scene changes
				// touch everything), which spreads the per-frame input
				// bursts over a wide size range — the source of x264's
				// bursty traffic in paper Fig. 4.
				fh := xorshift64(uint64(f)*0x9E3779B97F4A7C15 + 17)
				activity := 10 + fh%86 // percent of active macroblocks
				lo, hi := partition(mbRows, threads, tt)
				// Frame load: before encoding starts, each thread streams
				// the active portion of its slice of the incoming frame
				// from memory (fresh addresses — a ring of input buffers),
				// a contiguous burst whose size varies with the frame's
				// activity. This is the frame-copy phase of the real
				// encoder and the source of x264's bursty traffic for the
				// cache-resident sim* inputs (paper Fig. 4b).
				inBase := base(x264Input) + uint64(f)*frameBytes
				sliceLo := uint64(lo) * 16 * uint64(p.width)
				sliceBytes := uint64(hi-lo) * 16 * uint64(p.width)
				loadBytes := sliceBytes * activity / 100
				for off := uint64(0); off < loadBytes; off += 64 {
					if !w.Emit(trace.Ref{Addr: inBase + sliceLo + off, Kind: trace.Load, Work: 1}) {
						return
					}
				}
				for mby := lo; mby < hi; mby++ {
					for mbx := 0; mbx < mbCols; mbx++ {
						bx, by := mbx*16, mby*16
						// Load the current macroblock (one row = 16 bytes,
						// so rows share cache lines with neighbors).
						for r := 0; r < 16; r++ {
							if !w.Emit(trace.Ref{Addr: x.pixAddr(x264Cur, bx, by+r), Kind: trace.Load, Work: 2}) {
								return
							}
						}
						// Motion search over candidate positions.
						for c := 0; c < p.candidates; c++ {
							var dx, dy int
							if c < len(diamond) {
								dx, dy = diamond[c][0], diamond[c][1]
							} else {
								rng = xorshift64(rng)
								dx = int(rng%33) - 16
								dy = int((rng>>8)%33) - 16
							}
							cx, cy := clamp(bx+dx, 0, p.width-16), clamp(by+dy, 0, p.height-16)
							for r := 0; r < 16; r++ {
								if !w.Emit(trace.Ref{Addr: x.pixAddr(x264Ref, cx, cy+r), Kind: trace.Load, Work: 3}) {
									return
								}
							}
						}
						// Write the encoded block.
						for r := 0; r < 16; r++ {
							if !w.Emit(trace.Ref{Addr: x.pixAddr(x264Out, bx, by+r), Kind: trace.Store, Work: 2}) {
								return
							}
						}
					}
				}
				// Frame boundary: threads synchronize before the next frame.
				if !w.Emit(trace.Ref{Sync: true, Work: 20}) {
					return
				}
			}
		})
	}
	return streams
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
