// Package trace defines memory-reference streams: the interface between the
// workload kernels (which emit per-thread sequences of computation and
// memory accesses) and the multicore simulator (which executes them against
// a cache hierarchy and memory controllers).
//
// A reference models one memory instruction together with the computation
// that precedes it: "execute Work cycles, then issue a Load/Store at Addr".
// The Dep flag distinguishes dependent loads (the core cannot retire past
// them until the data returns — e.g. a pointer chase or an indexed gather)
// from independent accesses that can overlap with further execution while an
// MSHR is available (streaming reads, stores drained through a write
// buffer). The mix of dependent and independent references is what gives a
// workload its memory-level parallelism, and in turn the super-linear growth
// of contention the paper measures.
package trace

// RegionBits sets the address layout the workloads share with the
// simulator: each array lives in its own 1<<RegionBits (64 GiB) region,
// so arrays never alias, and the simulator keeps one dense page-home table
// per region.
const RegionBits = 36

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a read access.
	Load Kind = iota
	// Store is a write access.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "unknown"
	}
}

// Ref is one memory reference preceded by Work cycles of computation, or —
// when Sync is set — a barrier rendezvous point.
type Ref struct {
	// Addr is the byte address accessed (ignored for Sync refs).
	Addr uint64
	// Kind is Load or Store.
	Kind Kind
	// Dep marks a dependent access: the issuing core stalls until the data
	// returns before executing anything further.
	Dep bool
	// Sync marks a barrier: after retiring Work cycles, the thread blocks
	// until every thread of the program has reached the same barrier
	// ordinal. No memory access is performed. Threads that finish their
	// stream count as having arrived at all remaining barriers.
	Sync bool
	// Work is the number of computation cycles the core retires before
	// issuing this reference (for Sync, before arriving at the barrier).
	Work uint32
}

// Stream produces a sequence of references one run at a time. Next
// returns the next run, or an empty run when the stream is exhausted; every
// later call returns an empty run too. A run stays valid only until the
// following call to Next, and the caller must not modify it. Streams are
// single-consumer and not safe for concurrent use.
type Stream interface {
	Next() []Ref
}

// sliceStream hands out a materialized reference slice as a single run.
type sliceStream struct {
	refs []Ref
}

// FromSlice returns a Stream over a materialized slice of references. The
// slice is not copied; the caller must not mutate it while streaming.
func FromSlice(refs []Ref) Stream {
	return &sliceStream{refs: refs}
}

func (s *sliceStream) Next() []Ref {
	run := s.refs
	s.refs = nil
	return run
}

// Collect drains a stream into a slice, up to max references (max <= 0
// means unbounded). Intended for tests and small inspection tasks, not for
// full workload traces.
func Collect(s Stream, max int) []Ref {
	var out []Ref
	for run := s.Next(); len(run) > 0; run = s.Next() {
		if max > 0 && len(out)+len(run) >= max {
			return append(out, run[:max-len(out)]...)
		}
		out = append(out, run...)
	}
	return out
}

// Count drains a stream and returns the number of references it produced.
func Count(s Stream) int {
	n := 0
	for run := s.Next(); len(run) > 0; run = s.Next() {
		n += len(run)
	}
	return n
}

// Gen adapts a push-style generator into a pull-style Stream. gen
// receives a *Writer, calls its Emit once per reference and must return
// once Emit reports false. This supports kernels whose access patterns
// are easiest to express as straight-line code (e.g. nested loops over a
// grid).
//
// The generator runs on its own goroutine, double-buffered: each stream
// owns exactly two buffers of genChunk refs. The producer fills one while
// the consumer reads the other, which Next returned as one run; filled
// buffers are handed over on an unbuffered channel, and Next returns the
// previous run's buffer before it receives the next one. A stream
// therefore holds at most 2×genChunk refs however far ahead the generator
// could run, and allocates nothing after it starts. Stop is observed only
// at chunk boundaries, so a stopped generator returns within genChunk
// further refs.
func Gen(gen func(w *Writer)) Stream {
	g := &genStream{
		full: make(chan []Ref),
		// Capacity 2 holds both buffers, so returning one never blocks.
		free: make(chan *[genChunk]Ref, 2),
		stop: make(chan struct{}),
	}
	g.free <- new([genChunk]Ref)
	g.free <- new([genChunk]Ref)
	//simcheck:allow(detlint) generator goroutine hands chunks over a synchronized channel; the consumer sees refs in emit order regardless of scheduling
	go g.produce(gen)
	return g
}

// genChunk is the number of refs per buffer: 4 KiB at 16 bytes per Ref.
// Larger buffers hand over less often and so cost less per ref, but every
// stream holds two of them: at 256 a 48-thread point's buffers take
// 384 KiB.
const genChunk = 256

type genStream struct {
	full  chan []Ref          // producer → consumer, unbuffered; closed when gen returns
	free  chan *[genChunk]Ref // consumer → producer, buffers already read
	stop  chan struct{}
	chunk []Ref // the run last returned by Next, still the consumer's
	done  bool
}

// Writer is a Gen generator's end of its stream. Emit is small enough to
// inline into the kernel's loop: it stores the ref in the current buffer,
// and only a full buffer costs a call.
type Writer struct {
	buf     *[genChunk]Ref // the buffer being filled; always the producer's own
	n       int            // refs in buf
	stopped bool
	g       *genStream
}

// Emit appends r to the stream and reports whether the generator should
// go on. After Stop it reports false when the buffer next fills, at most
// genChunk refs later; that ref and every later one are dropped, and every
// later Emit reports false too.
func (w *Writer) Emit(r Ref) bool {
	w.buf[w.n] = r
	w.n++
	if w.n < genChunk {
		return true
	}
	return w.flush()
}

// flush takes the other buffer back and hands the full one to the
// consumer, or reports false once Stop has been called. It stays out of
// line: inlined, it would push Emit past the inliner's budget, and a call
// per ref costs more than the buffer saves.
//
//go:noinline
func (w *Writer) flush() bool {
	if !w.stopped {
		// Take the other buffer back before handing this one over, so
		// the writer always owns buf, even after a stop. Next returns
		// the run it read before it receives the next, so the two
		// cannot deadlock; Stop's drain returns no buffer, so watch stop
		// too.
		select {
		case next := <-w.g.free:
			select {
			case w.g.full <- w.buf[:]:
				w.buf, w.n = next, 0
				return true
			case <-w.g.stop:
			}
		case <-w.g.stop:
		}
		w.stopped = true
	}
	// Leave one slot free, so that an Emit after false writes into the
	// writer's own buffer and lands here again.
	w.n = genChunk - 1
	return false
}

// produce runs gen and hands over the last, partly filled buffer when it
// returns. It closes g.full when gen returns.
func (g *genStream) produce(gen func(w *Writer)) {
	defer close(g.full)
	w := &Writer{buf: <-g.free, g: g}
	gen(w)
	if !w.stopped && w.n > 0 {
		select {
		case g.full <- w.buf[:w.n]:
		case <-g.stop:
		}
	}
}

// Next hands the previous run's buffer back to the producer and returns
// the next filled one. Only the last buffer can be short, and none is
// empty.
func (g *genStream) Next() []Ref {
	if g.done {
		return nil
	}
	if g.chunk != nil {
		g.free <- (*[genChunk]Ref)(g.chunk[:genChunk])
		g.chunk = nil
	}
	chunk, ok := <-g.full
	if !ok {
		g.done = true
		return nil
	}
	g.chunk = chunk
	return chunk
}

// Stop terminates the backing generator goroutine of a Gen stream early
// and waits for it to return. It is safe to call multiple times and on
// fully drained streams.
func (g *genStream) Stop() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	// Drain so the producer is never blocked on send; the range ends
	// when the producer has returned.
	for range g.full {
	}
	g.done = true
	g.chunk = nil
}

// Stopper is implemented by streams holding background resources.
type Stopper interface {
	Stop()
}

// StopAll stops every stream that implements Stopper.
func StopAll(streams ...Stream) {
	for _, s := range streams {
		if st, ok := s.(Stopper); ok {
			st.Stop()
		}
	}
}
