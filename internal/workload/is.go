package workload

import (
	"fmt"

	"repro/internal/trace"
)

// isParams sizes the integer-sort kernel per class. As in NPB IS, the
// ranking histogram spans the key range, so from class W upward it exceeds
// the LLC together with the key arrays.
type isParams struct {
	keys       int // number of 4-byte keys
	keyRange   int // histogram entries (NPB's Bmax)
	iterations int
}

var isClasses = map[Class]isParams{
	S: {keys: 16 << 10, keyRange: 8 << 10, iterations: 40},
	W: {keys: 128 << 10, keyRange: 128 << 10, iterations: 6},
	A: {keys: 256 << 10, keyRange: 256 << 10, iterations: 4},
	B: {keys: 512 << 10, keyRange: 512 << 10, iterations: 2},
	C: {keys: 1 << 20, keyRange: 1 << 20, iterations: 2},
}

// is is the parallel sorting dwarf: NPB's bucket/counting sort on integers.
// Its traffic mixes streaming key reads (independent, 16 keys per line)
// with histogram increments and ranked scatter stores whose ADDRESSES come
// from key values — genuinely data-dependent accesses with little
// memory-level parallelism. The dependent portion self-throttles, which is
// why the paper measures only moderate contention growth for IS despite
// its large footprint.
type is struct {
	class Class
	p     isParams
	tune  Tuning
}

func init() {
	register("IS", "Parallel sorting: bucket sort on integers",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := isClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload IS: no class %q", class)
			}
			return &is{class: class, p: p, tune: tune}, nil
		})
}

func (s *is) Name() string        { return "IS" }
func (s *is) Class() Class        { return s.class }
func (s *is) Description() string { return Describe("IS") }

// FootprintBytes covers input keys, output keys and the key-range
// histogram.
func (s *is) FootprintBytes() uint64 {
	return uint64(s.p.keys)*4*2 + uint64(s.p.keyRange)*4
}

const (
	isKeys = iota
	isHist
	isOutput
)

// Streams partitions the key array statically. Each iteration has the
// three phases of NPB IS: count (stream keys, bump the key's histogram
// entry), rank (prefix-sum sweep over the histogram), and permute (stream
// keys again, store each at its rank), followed by the iteration barrier.
func (s *is) Streams(threads int) []trace.Stream {
	iters := s.tune.scale(s.p.iterations)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		tt := t
		lo, hi := partition(s.p.keys, threads, t)
		seed := uint64(seedFor("IS", s.class, t)) | 1
		p := s.p
		keys := uint64(p.keys)
		streams[t] = trace.Gen(func(w *trace.Writer) {
			for it := 0; it < iters; it++ {
				// --- Count phase: load key (with the shift/mask work of
				// key extraction), then increment its histogram entry. The
				// entry LOAD is address-dependent on the key; the store to
				// the same line drains through the write buffer. ---
				rng := seed
				for i := lo; i < hi; i++ {
					if !w.Emit(trace.Ref{Addr: base(isKeys) + uint64(i)*4, Kind: trace.Load, Work: 4}) {
						return
					}
					rng = xorshift64(rng)
					entry := rng % uint64(p.keyRange)
					if !w.Emit(trace.Ref{Addr: base(isHist) + entry*4, Kind: trace.Load, Dep: true, Work: 1}) {
						return
					}
					if !w.Emit(trace.Ref{Addr: base(isHist) + entry*4, Kind: trace.Store, Work: 1}) {
						return
					}
				}
				// --- Rank phase: prefix-sum sweep over the thread's share
				// of the histogram (independent streaming). ---
				hlo, hhi := partition(p.keyRange, threads, tt)
				for b := hlo; b < hhi; b++ {
					if !w.Emit(trace.Ref{Addr: base(isHist) + uint64(b)*4, Kind: trace.Load, Work: 1}) {
						return
					}
				}
				// --- Permute phase: reload keys; each key's destination
				// comes from a rank lookup through the histogram (an
				// address-dependent load), then the key is scattered into
				// the output through the write buffer. ---
				rng = seed
				for i := lo; i < hi; i++ {
					if !w.Emit(trace.Ref{Addr: base(isKeys) + uint64(i)*4, Kind: trace.Load, Work: 4}) {
						return
					}
					rng = xorshift64(rng)
					entry := rng % uint64(p.keyRange)
					if !w.Emit(trace.Ref{Addr: base(isHist) + entry*4, Kind: trace.Load, Dep: true, Work: 1}) {
						return
					}
					// The store serializes through the bucket pointer's
					// read-modify-write (key_buff_ptr[key]++ in NPB IS).
					pos := rng % keys
					if !w.Emit(trace.Ref{Addr: base(isOutput) + pos*4, Kind: trace.Store, Dep: true, Work: 1}) {
						return
					}
				}
				if !emitBarrier(w, tt, it) {
					return
				}
			}
		})
	}
	return streams
}
