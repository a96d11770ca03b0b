package eventq

// event is one far-future callback. seq breaks same-time ties in FIFO
// scheduling order.
type event struct {
	t   uint64
	seq uint64
	fn  func()
}

// before reports whether e runs before other: earlier time first, earlier
// scheduling order among equal times.
func (e event) before(other event) bool {
	if e.t != other.t {
		return e.t < other.t
	}
	return e.seq < other.seq
}

// farHeap is the binary min-heap of events beyond the wheel's window,
// ordered by (t, seq). The sift operations are hand-written over the event
// slice (rather than container/heap) so scheduling does not box events
// into interfaces, and the slice keeps its high-water capacity, so the
// steady state allocates nothing.
type farHeap struct {
	seq   uint64
	items []event
}

// push adds fn at time t behind every earlier push for the same time.
//
//simcheck:hotpath
func (h *farHeap) push(t uint64, fn func()) {
	h.seq++
	//simcheck:allow(hotpath) high-water heap store: pop shrinks items to items[:last] and keeps the backing array, so append stops allocating once the far population has peaked — TestZeroAllocSteadyState pins this with quantum-scale outliers
	h.items = append(h.items, event{t: t, seq: h.seq, fn: fn})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].before(h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *farHeap) pop() event {
	ev := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = event{}
	h.items = h.items[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && h.items[l].before(h.items[least]) {
			least = l
		}
		if r := 2*i + 2; r < last && h.items[r].before(h.items[least]) {
			least = r
		}
		if least == i {
			return ev
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
