package eventq

import (
	"fmt"
	"math/rand"
	"testing"
)

// The differential suite drives the timing wheel and refQueue, a plain
// binary heap, with identical schedules and requires the exact same
// dispatch order. Both order events by the total key (time, scheduling
// sequence), so equal-timestamp ties MUST pop in FIFO scheduling order —
// that is the pinned determinism contract; any divergence is a bug in the
// wheel (refQueue is small enough to check by eye).

// queue is the API the behavioural tests exercise on both implementations.
type queue interface {
	Now() uint64
	Len() int
	Dispatched() uint64
	At(t uint64, fn func())
	After(d uint64, fn func())
	Step() bool
	Run()
	RunUntil(t uint64)
	RunWhile(cond func() bool)
	RunChecked(every uint64, cont func() bool)
	Drain() int
}

var (
	_ queue = (*Queue)(nil)
	_ queue = (*refQueue)(nil)
)

// refQueue is the reference model: a binary heap over (t, seq) with no
// assumptions about the time distribution.
type refQueue struct {
	now        uint64
	seq        uint64
	dispatched uint64
	items      []event
}

func (q *refQueue) Now() uint64        { return q.now }
func (q *refQueue) Len() int           { return len(q.items) }
func (q *refQueue) Dispatched() uint64 { return q.dispatched }

func (q *refQueue) At(t uint64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.items = append(q.items, event{t: t, seq: q.seq, fn: fn})
	for i := len(q.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *refQueue) After(d uint64, fn func()) { q.At(q.now+d, fn) }

func (q *refQueue) Step() bool {
	if len(q.items) == 0 {
		return false
	}
	ev := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{}
	q.items = q.items[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && q.items[l].before(q.items[least]) {
			least = l
		}
		if r := 2*i + 2; r < last && q.items[r].before(q.items[least]) {
			least = r
		}
		if least == i {
			break
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
	q.now = ev.t
	q.dispatched++
	ev.fn()
	return true
}

func (q *refQueue) Run() {
	for q.Step() {
	}
}

func (q *refQueue) RunUntil(t uint64) {
	for len(q.items) > 0 && q.items[0].t <= t {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *refQueue) RunWhile(cond func() bool) {
	for cond() && q.Step() {
	}
}

func (q *refQueue) RunChecked(every uint64, cont func() bool) {
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

func (q *refQueue) Drain() int {
	n := len(q.items)
	clear(q.items)
	q.items = q.items[:0]
	return n
}

// impls runs a subtest against the wheel and against the reference heap,
// so the behavioural contract is pinned on both sides of the differential.
// The wheel's subtest is named "calendar": a timing wheel is a calendar
// queue whose buckets are one cycle wide.
func impls(t *testing.T, f func(t *testing.T, newQ func() queue)) {
	t.Helper()
	t.Run("calendar", func(t *testing.T) { f(t, func() queue { return new(Queue) }) })
	t.Run("heap", func(t *testing.T) { f(t, func() queue { return new(refQueue) }) })
}

// runScript is one randomized workload: a mix of up-front scheduling,
// nested rescheduling from inside callbacks, and occasional bursts of equal
// timestamps. It returns the (id, now) dispatch record.
func runScript(q queue, rng *rand.Rand, n int) []uint64 {
	var order []uint64
	id := uint64(0)
	var record func()
	schedule := func(delay uint64) {
		id++
		myID := id
		q.After(delay, func() {
			order = append(order, myID, q.Now())
			record()
		})
	}
	nested := n / 2
	record = func() {
		if nested > 0 {
			nested--
			// Nested events: mostly short hops (the simulator's common
			// case), sometimes a large jump, sometimes a same-time event.
			switch rng.Intn(10) {
			case 0:
				schedule(0) // same-timestamp tie
			case 1:
				schedule(uint64(rng.Intn(1 << 16))) // far jump
			default:
				schedule(uint64(rng.Intn(700)))
			}
		}
	}
	for i := 0; i < n-n/2; i++ {
		switch rng.Intn(8) {
		case 0:
			// Burst of ties at one timestamp.
			t := q.Now() + uint64(rng.Intn(1000))
			for j := 0; j < 3 && i < n-n/2; j++ {
				id++
				myID := id
				q.At(t, func() { order = append(order, myID, q.Now()) })
				i++
			}
		default:
			schedule(uint64(rng.Intn(5000)))
		}
	}
	q.Run()
	return order
}

// diffRecords fails t at the first value where the wheel's observations
// (got) and the reference heap's (want) differ.
func diffRecords(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			lo := max(0, i-4)
			t.Fatalf("%s: value %d differs: wheel %v, ref %v (from value %d)",
				label, i, got[lo:min(len(got), i+4)], want[lo:min(len(want), i+4)], lo)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: wheel produced %d values, ref %d", label, len(got), len(want))
	}
}

func TestDifferentialQueueVsRef(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := runScript(new(Queue), rand.New(rand.NewSource(seed)), 2000)
		want := runScript(new(refQueue), rand.New(rand.NewSource(seed)), 2000)
		diffRecords(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// TestDifferentialTieOrderPinned documents the tie contract explicitly:
// a block of events scheduled for one timestamp pops in scheduling order on
// both implementations, even when interleaved with earlier and later times.
func TestDifferentialTieOrderPinned(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var order []int
		q.At(50, func() { order = append(order, -1) })
		for i := 0; i < 100; i++ {
			i := i
			q.At(100, func() { order = append(order, i) })
		}
		q.At(70, func() { order = append(order, -2) })
		q.Run()
		want := append([]int{-1, -2}, make([]int, 0, 100)...)
		for i := 0; i < 100; i++ {
			want = append(want, i)
		}
		if len(order) != len(want) {
			t.Fatalf("got %d events, want %d", len(order), len(want))
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("position %d: got %d, want %d (ties must pop in FIFO scheduling order)", i, order[i], want[i])
			}
		}
	})
}

// replay runs a byte-encoded op stream through q and returns everything
// observable: each dispatch as (id, now), and after every op the pending
// count, dispatch count and clock (plus Drain's return value). Each op is
// one opcode byte and one argument byte; a missing argument reads as 0.
//
// The delays cover the wheel's edges: 0, span-1, span, span+1 and far
// jumps well beyond the window, plus same-time bursts, past-time clamps,
// callbacks that reschedule, Step, RunUntil across the window edge, and
// Drain followed by reuse.
func replay(q queue, data []byte) []uint64 {
	var out []uint64
	id := uint64(0)
	record := func() func() {
		id++
		myID := id
		return func() { out = append(out, myID, q.Now()) }
	}
	edges := [...]uint64{0, 1, span - 1, span, span + 1, 2*span - 1, 2 * span, 5*span + 3}
	for i := 0; i < len(data); i += 2 {
		op := data[i]
		var arg uint64
		if i+1 < len(data) {
			arg = uint64(data[i+1])
		}
		switch op % 10 {
		case 0: // After at a window edge
			q.After(edges[arg%uint64(len(edges))], record())
		case 1: // short delay
			q.After(arg, record())
		case 2: // far jump, many windows out
			q.After((arg+1)*37*span+arg, record())
		case 3: // past-time clamp
			q.At(q.Now()-min(q.Now(), arg), record())
		case 4: // same-time burst
			t := q.Now() + edges[arg%uint64(len(edges))] + arg/8
			for j := uint64(0); j <= arg%5; j++ {
				q.At(t, record())
			}
		case 5: // a callback that reschedules from inside dispatch
			d := edges[arg%uint64(len(edges))]
			first := record()
			second := record()
			q.After(arg/8, func() {
				first()
				q.After(d, second)
			})
		case 6:
			q.Step()
		case 7: // RunUntil around and across the window edge
			q.RunUntil(q.Now() + span - 4 + arg%9 + (arg/9)*span/4)
		case 8:
			out = append(out, uint64(q.Drain()))
		case 9: // absolute At just inside and just beyond the window
			q.At(q.Now()+span-1+arg%3, record())
		}
		out = append(out, uint64(q.Len()), q.Dispatched(), q.Now())
	}
	q.Run()
	return append(out, uint64(q.Len()), q.Dispatched(), q.Now())
}

// FuzzQueueDifferential replays fuzzer-chosen op streams through the wheel
// and the reference heap and requires identical observations. The seed
// corpus runs under plain `go test`; `go test -fuzz FuzzQueueDifferential`
// explores further.
func FuzzQueueDifferential(f *testing.F) {
	// Far-to-near ties: a far event, a clock move, then a near schedule
	// for the same cycle, once via RunUntil and once via Step with the far
	// event landing on the window's last cycle.
	f.Add([]byte{0, 4, 7, 0, 1, 5, 6, 0})
	f.Add([]byte{0, 3, 1, 1, 6, 0, 9, 0})
	// Drain with far and near events pending, then reuse.
	f.Add([]byte{2, 3, 0, 2, 4, 11, 8, 0, 0, 3, 5, 12, 6, 0})
	// Window edges at every delay, then RunUntil across them.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 7, 200, 7, 9})
	rng := rand.New(rand.NewSource(1701))
	for k := 0; k < 16; k++ {
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffRecords(t, "replay", replay(new(Queue), data), replay(new(refQueue), data))
	})
}
