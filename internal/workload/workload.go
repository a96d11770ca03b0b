// Package workload implements the parallel programs of the paper's
// benchmark set as memory-reference generators: the six NPB-style HPC
// dwarfs the paper profiled — EP (embarrassingly parallel), IS (bucket
// sort), FT (3D FFT), CG (conjugate-gradient sparse solver), SP
// (pentadiagonal solver), MG (multigrid) — and four PARSEC applications —
// x264 (video encoding), streamcluster (online clustering), canneal
// (annealing-based routing) and fluidanimate (SPH fluid simulation). The
// paper's tables show the Table I subset (EP, IS, FT, CG, SP, x264).
//
// Each kernel implements the real algorithm's traversal order over its data
// structures and emits, per thread, the stream of memory references and
// interleaved work cycles that the traversal performs. What the simulator
// then measures — miss rates, memory-level parallelism, burstiness and
// contention — emerges from those access patterns rather than being
// scripted. Two properties set each program's contention level: how much
// of its footprint misses the LLC, and how much memory-level parallelism
// its misses have. SP's affine plane-strided sweeps miss most and issue at
// full MSHR parallelism (highest contention); FT's dimension passes are
// similar but lighter; CG mixes dependent sparse gathers with streaming
// (moderate); IS serializes through data-dependent histogram and rank
// lookups (moderate despite heavy traffic); canneal is a pure dependent
// pointer chase; EP, x264 and streamcluster are compute- or cache-friendly
// (lowest) — reproducing the paper's ordering.
//
// Iterative kernels end each iteration with barrier coherence traffic and
// a Sync rendezvous (see emitBarrier), which keeps threads in lockstep and
// produces the clustered, heavy-tailed bursts that make small problem
// sizes bursty (paper Fig. 4).
//
// Problem classes follow the NPB letters (S, W, A, B, C) plus the PARSEC
// input names. Capacities are scaled down by the same factor as the
// machine presets' caches (machine.CacheScale), preserving the
// footprint:LLC ratios that put each class in the paper's cached /
// borderline / thrashing regime.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Class identifies a problem size. NPB letters for the dwarfs; PARSEC
// input names for x264.
type Class string

// NPB problem classes and PARSEC input sizes.
const (
	S Class = "S"
	W Class = "W"
	A Class = "A"
	B Class = "B"
	C Class = "C"

	SimSmall  Class = "simsmall"
	SimMedium Class = "simmedium"
	SimLarge  Class = "simlarge"
	Native    Class = "native"
)

// Tuning adjusts simulation cost without changing a workload's memory
// character.
type Tuning struct {
	// RefScale multiplies iteration counts; 0 means 1.0. Tests use small
	// values for speed; experiments use 1.0.
	RefScale float64
}

func (t Tuning) scale(n int) int {
	f := t.RefScale
	if f == 0 {
		f = 1
	}
	s := int(float64(n) * f)
	if s < 1 {
		s = 1
	}
	return s
}

// Workload produces per-thread reference streams for one program+class.
type Workload struct {
	name      string
	class     Class
	footprint uint64
	thread    func(threads, t int, w *trace.Writer)
}

// Name returns the program name ("CG", "SP", "x264", ...).
func (wl *Workload) Name() string { return wl.name }

// Class returns the problem class.
func (wl *Workload) Class() Class { return wl.class }

// Description summarizes the parallel kernel (paper Table I).
func (wl *Workload) Description() string { return Describe(wl.name) }

// FootprintBytes returns the total data footprint.
func (wl *Workload) FootprintBytes() uint64 { return wl.footprint }

// Streams returns one reference stream per thread, each running the
// kernel's thread body on its own generator. Streams are deterministic
// for a given (name, class, threads).
func (wl *Workload) Streams(threads int) []trace.Stream {
	streams := make([]trace.Stream, threads)
	for t := range streams {
		streams[t] = trace.Gen(func(w *trace.Writer) { wl.thread(threads, t, w) })
	}
	return streams
}

// kernel is one registered program. build sizes a class under a tuning
// and returns its footprint and its thread body: the loop that thread t
// of threads runs, emitting its references on w.
type kernel struct {
	desc    string
	classes []Class
	build   func(Class, Tuning) (footprint uint64, thread func(threads, t int, w *trace.Writer))
}

// registry holds the kernels; each kernel's init adds itself.
var registry = map[string]kernel{}

// New constructs a workload by program name and class with default tuning.
func New(name string, class Class) (*Workload, error) {
	return NewTuned(name, class, Tuning{})
}

// NewTuned constructs a workload with explicit tuning.
func NewTuned(name string, class Class, tune Tuning) (*Workload, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown program %q (have %v)", name, Names())
	}
	valid := false
	for _, cl := range k.classes {
		if cl == class {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("workload: program %s has no class %q (have %v)", name, class, k.classes)
	}
	footprint, thread := k.build(class, tune)
	return &Workload{name: name, class: class, footprint: footprint, thread: thread}, nil
}

// Names lists registered program names sorted alphabetically.
func Names() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ClassesFor returns the classes supported by a program.
func ClassesFor(name string) []Class {
	k, ok := registry[name]
	if !ok {
		return nil
	}
	return append([]Class(nil), k.classes...)
}

// Describe returns the Table I style one-liner for a program.
func Describe(name string) string {
	return registry[name].desc
}

// base returns the byte address where array id begins. Each logical array
// lives in its own trace.RegionBits region, so arrays never alias and NUMA
// page homing follows whichever thread touches a page first.
func base(id int) uint64 { return uint64(id+1) << trace.RegionBits }

// partition splits n items across threads, returning the [lo, hi) range of
// thread t. The remainder spreads over the first threads, matching OpenMP
// static scheduling.
func partition(n, threads, t int) (lo, hi int) {
	q, r := n/threads, n%threads
	lo = t*q + min(t, r)
	hi = lo + q
	if t < r {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// seedFor derives a deterministic per-thread seed.
func seedFor(name string, class Class, thread int) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(name + ":" + string(class)) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h ^ int64(thread)*2654435761
}

// barrierRegion is the shared address region used by emitBarrier.
const barrierRegion = 62

// emitBarrier models the off-chip traffic of an iteration barrier plus
// reduction: cross-socket coherence transfers of shared lines (flags,
// reduction partials, false-shared neighbors). The simulator has no
// invalidation protocol, so the coherence misses are modeled as accesses to
// lines that rotate every iteration — each transfer becomes a real off-chip
// request (see DESIGN.md, substitutions). The number of lines transferred
// varies heavy-tailed per iteration — identically for every thread, so
// threads emitting the same per-iteration work stay in natural lockstep the
// way a real barrier would hold them. This per-iteration variation is what
// gives cache-resident problem sizes their long-tailed burst-size
// distribution (paper Fig. 4); for large problem sizes the barrier traffic
// is negligible against the streaming misses.
func emitBarrier(w *trace.Writer, thread, iter int) bool {
	h := xorshift64(uint64(iter)*0x9E3779B97F4A7C15 + 1)
	// u in (0, 1]; lines ~ u^(-0.85)/4, clamped: a heavy-tailed burst size
	// whose volume stays small against the compute phase of one iteration.
	u := float64(h%1_000_000+1) / 1_000_000
	lines := int(math.Pow(u, -0.85) / 4)
	if lines < 1 {
		lines = 1
	}
	if lines > 96 {
		lines = 96
	}
	// Rotating shared lines: distinct per (iteration, thread) so every
	// transfer reaches memory, like an invalidation-induced refill.
	start := (uint64(iter)*16384 + uint64(thread)*512) % (1 << 20)
	for l := 0; l < lines; l++ {
		addr := base(barrierRegion) + ((start+uint64(l))%(1<<20))*64
		if !w.Emit(trace.Ref{Addr: addr, Kind: trace.Load, Dep: l == lines-1, Work: 2}) {
			return false
		}
	}
	// Rendezvous: the thread blocks here until all threads arrive.
	return w.Emit(trace.Ref{Sync: true, Work: 20})
}
