// Package eventq provides the discrete-event simulation kernel shared by
// the memory-controller model and the multicore simulator: a time-ordered
// queue of callbacks with a monotonic simulated clock measured in cycles.
//
// Events scheduled for the same time run in FIFO order of scheduling, which
// keeps whole-system simulations deterministic: the pop order is the total
// key (time, schedule sequence), pinned by the differential tests against a
// plain binary-heap reference model.
package eventq

import "math/bits"

// span is the number of cycles the wheel covers: an event due within span
// cycles of the clock lives in the slot for its exact cycle, anything later
// waits in the far heap. The simulator's delays are short (on CG.C/IntelUMA8
// only 357 of 77.3M schedules reach 128 cycles), so the far heap sees
// little beyond scheduling-quantum timers. 128, 256 and 4096 slots tied
// with 1024 on simulation CPU time; 1024 keeps the far heap rarer on
// machines with longer latencies.
const (
	span  = 1 << 10
	mask  = span - 1
	words = span / 64
)

// slot holds the callbacks due at one cycle, in scheduling order, with a
// consumed-head index so popping the front keeps the slice's capacity.
type slot struct {
	fns  []func()
	head int
}

// Queue is a per-cycle timing wheel with a binary heap for far-future
// events.
//
// Slot t&mask holds the callbacks due at cycle t for every t in
// [now, now+span); an occupancy bitmap finds the next non-empty slot.
// Because a slot holds exactly one timestamp, its callbacks are already in
// (t, seq) order: no sorted insert, no bucket-width estimate, no resize.
// Events due at now+span or later go to the far heap. Whenever the clock
// moves, every far event that the window now covers moves into its slot,
// in heap order, before any callback runs — so a far event always enters
// its slot ahead of any later schedule for the same cycle.
//
// Insert and pop are O(1) on the near path, and the steady state allocates
// nothing: slots and the heap keep their high-water capacity. The zero
// value is ready to use.
type Queue struct {
	now        uint64
	dispatched uint64
	n          int // pending events, near and far
	occ        [words]uint64
	slots      [span]slot
	far        farHeap
}

// Now returns the current simulated time in cycles.
func (q *Queue) Now() uint64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Dispatched returns the number of events executed so far (the
// simulated-events/sec numerator for benchmark reporting).
func (q *Queue) Dispatched() uint64 { return q.dispatched }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is clamped to Now, which keeps zero-latency interactions safe.
//
//simcheck:hotpath
func (q *Queue) At(t uint64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.n++
	if t-q.now < span {
		q.put(t, fn)
		return
	}
	q.far.push(t, fn)
}

// After schedules fn to run d cycles from now.
//
//simcheck:hotpath
func (q *Queue) After(d uint64, fn func()) {
	q.At(q.now+d, fn)
}

// put appends fn to the slot of cycle t, which must lie in the window.
//
//simcheck:hotpath
func (q *Queue) put(t uint64, fn func()) {
	i := t & mask
	s := &q.slots[i]
	//simcheck:allow(hotpath) high-water slot store: an emptied slot resets to fns[:0] and keeps its backing array, so append stops allocating once each slot has seen its peak same-cycle population — TestZeroAllocSteadyState pins this
	s.fns = append(s.fns, fn)
	q.occ[i>>6] |= 1 << (i & 63)
}

// Step pops and runs the earliest event, advancing the clock to its time.
// It reports whether an event was run.
//
//simcheck:hotpath
func (q *Queue) Step() bool {
	s := &q.slots[q.now&mask]
	if s.head == len(s.fns) {
		if q.n == 0 {
			return false
		}
		t := q.next()
		q.advance(t)
		s = &q.slots[t&mask]
	}
	fn := s.fns[s.head]
	s.fns[s.head] = nil
	s.head++
	if s.head == len(s.fns) {
		s.fns = s.fns[:0]
		s.head = 0
		i := q.now & mask
		q.occ[i>>6] &^= 1 << (i & 63)
	}
	q.n--
	q.dispatched++
	fn()
	return true
}

// next returns the earliest pending time; the queue must be non-empty.
// It scans the occupancy bitmap circularly from now's slot, which visits
// the window in time order, and falls back to the far heap's minimum when
// the window is empty.
func (q *Queue) next() uint64 {
	start := q.now & mask
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	for k := 0; k <= words; k++ {
		if word != 0 {
			i := w<<6 | uint64(bits.TrailingZeros64(word))
			return q.now + (i-start)&mask
		}
		w = (w + 1) % words
		word = q.occ[w]
	}
	return q.far.items[0].t
}

// advance moves the clock to t (no earlier than now, no later than the
// earliest pending event) and pulls every far event the window now covers
// into its slot, in (t, seq) order.
func (q *Queue) advance(t uint64) {
	q.now = t
	for len(q.far.items) > 0 && q.far.items[0].t-t < span {
		ev := q.far.pop()
		q.put(ev.t, ev.fn)
	}
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled during execution are honored if they fall within t.
func (q *Queue) RunUntil(t uint64) {
	for q.n > 0 && q.next() <= t {
		q.Step()
	}
	if q.now < t {
		q.advance(t)
	}
}

// RunWhile executes events while cond() returns true and events remain.
func (q *Queue) RunWhile(cond func() bool) {
	for cond() && q.Step() {
	}
}

// RunChecked executes events until the queue is empty, invoking cont after
// every `every` dispatched events and stopping early when it returns false.
// It is the cancellation-aware run loop: the caller's check latency is
// bounded by `every` events while dispatch stays allocation-free. every ==
// 0 behaves like Run (no checks).
func (q *Queue) RunChecked(every uint64, cont func() bool) {
	if every == 0 {
		q.Run()
		return
	}
	for {
		for i := uint64(0); i < every; i++ {
			if !q.Step() {
				return
			}
		}
		if !cont() {
			return
		}
	}
}

// Drain discards every pending event without running it and returns the
// number dropped. A canceled simulation drains its queue so pooled
// callbacks (and anything they capture) are released immediately; slot and
// heap capacity is kept, and the queue remains usable afterwards.
func (q *Queue) Drain() int {
	for w, word := range q.occ {
		for ; word != 0; word &= word - 1 {
			s := &q.slots[w<<6|bits.TrailingZeros64(word)]
			clear(s.fns)
			s.fns = s.fns[:0]
			s.head = 0
		}
		q.occ[w] = 0
	}
	clear(q.far.items)
	q.far.items = q.far.items[:0]
	n := q.n
	q.n = 0
	return n
}
