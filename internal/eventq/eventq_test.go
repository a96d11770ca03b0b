package eventq

import (
	"testing"
	"testing/quick"
)

func TestOrderingByTime(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var order []int
		q.At(30, func() { order = append(order, 3) })
		q.At(10, func() { order = append(order, 1) })
		q.At(20, func() { order = append(order, 2) })
		q.Run()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Errorf("order = %v", order)
		}
		if q.Now() != 30 {
			t.Errorf("now = %d", q.Now())
		}
		if q.Dispatched() != 3 {
			t.Errorf("dispatched = %d", q.Dispatched())
		}
	})
}

func TestFIFOTieBreak(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			q.At(5, func() { order = append(order, i) })
		}
		q.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("same-time events ran out of order: %v", order)
			}
		}
	})
}

func TestAfterAndNestedScheduling(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var times []uint64
		q.After(10, func() {
			times = append(times, q.Now())
			q.After(5, func() {
				times = append(times, q.Now())
			})
		})
		q.Run()
		if len(times) != 2 || times[0] != 10 || times[1] != 15 {
			t.Errorf("times = %v", times)
		}
	})
}

func TestPastSchedulingClamped(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		ran := false
		q.At(100, func() {
			q.At(50, func() { ran = true }) // in the past: clamp to now
			if q.Len() != 1 {
				t.Errorf("len = %d", q.Len())
			}
		})
		q.Run()
		if !ran {
			t.Error("clamped event did not run")
		}
		if q.Now() != 100 {
			t.Errorf("now = %d", q.Now())
		}
	})
}

func TestStepEmpty(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		if newQ().Step() {
			t.Error("Step on empty queue returned true")
		}
	})
}

func TestRunUntil(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var ran []uint64
		for _, tm := range []uint64{5, 10, 15, 20} {
			tm := tm
			q.At(tm, func() { ran = append(ran, tm) })
		}
		q.RunUntil(12)
		if len(ran) != 2 {
			t.Errorf("ran = %v", ran)
		}
		if q.Now() != 12 {
			t.Errorf("now = %d, want 12", q.Now())
		}
		q.RunUntil(100)
		if len(ran) != 4 || q.Now() != 100 {
			t.Errorf("ran = %v now = %d", ran, q.Now())
		}
	})
}

func TestRunUntilHonorsNestedWithinBound(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		var ran []uint64
		q.At(5, func() {
			q.After(3, func() { ran = append(ran, q.Now()) }) // t=8, within bound
		})
		q.RunUntil(10)
		if len(ran) != 1 || ran[0] != 8 {
			t.Errorf("ran = %v", ran)
		}
	})
}

// Property: events always run in non-decreasing time order regardless of
// scheduling order.
func TestMonotoneClockProperty(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		f := func(times []uint16) bool {
			q := newQ()
			var ran []uint64
			for _, tm := range times {
				tm := uint64(tm)
				q.At(tm, func() { ran = append(ran, q.Now()) })
			}
			q.Run()
			for i := 1; i < len(ran); i++ {
				if ran[i] < ran[i-1] {
					return false
				}
			}
			return len(ran) == len(times)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}

// TestFarPath exercises the far heap: sparse events separated by gaps
// much larger than the window, same-time ties among them, and a clock
// that jumps straight from one far event to the next.
func TestFarPath(t *testing.T) {
	var q Queue
	var ran []uint64
	times := []uint64{1 << 40, 1, 1 << 20, 1 << 30, 1 << 20, span, 1 << 40}
	for i, tm := range times {
		i, tm := i, tm
		q.At(tm, func() {
			if q.Now() != tm {
				t.Errorf("event %d ran at %d, want %d", i, q.Now(), tm)
			}
			ran = append(ran, uint64(i))
		})
	}
	if far := len(q.far.items); far != 6 {
		t.Fatalf("far heap holds %d events, want 6 (all but t=1)", far)
	}
	q.Run()
	want := []uint64{1, 5, 2, 4, 3, 0, 6}
	for i := range want {
		if i >= len(ran) || ran[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", ran, want)
		}
	}
	if q.Len() != 0 || len(q.far.items) != 0 {
		t.Errorf("pending after run: len=%d far=%d", q.Len(), len(q.far.items))
	}
}

// TestFarToNearTie pins the migration invariant: an event that took the
// far path pops before a later near-path schedule for the same cycle.
func TestFarToNearTie(t *testing.T) {
	var q Queue
	var order []string
	const due = span + 5
	q.At(due, func() { order = append(order, "A") })
	if len(q.far.items) != 1 {
		t.Fatalf("A should take the far path; far heap holds %d", len(q.far.items))
	}
	q.RunUntil(10)
	if len(q.far.items) != 0 {
		t.Fatalf("advancing the clock to 10 left A in the far heap")
	}
	q.At(due, func() { order = append(order, "B") })
	q.Run()
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Errorf("order = %v, want [A B]", order)
	}
	if q.Now() != due {
		t.Errorf("now = %d, want %d", q.Now(), due)
	}
}

// TestWheelWrapAround runs a population across many windows — scattered
// schedules over ~100 spans plus chains whose delays straddle the window
// edge — and requires the reference heap's exact dispatch order.
func TestWheelWrapAround(t *testing.T) {
	run := func(q queue) []uint64 {
		var out []uint64
		for i := 0; i < 5000; i++ {
			tm := uint64((i * 7919) % 100000)
			id := uint64(i)
			q.At(tm, func() { out = append(out, id, q.Now()) })
		}
		for c, d := range []uint64{span - 1, span, span + 1, 3 * span / 2} {
			id, hops := uint64(10000+c), 200
			var hop func()
			hop = func() {
				out = append(out, id, q.Now())
				if hops--; hops > 0 {
					q.After(d, hop)
				}
			}
			q.After(d, hop)
		}
		q.Run()
		return out
	}
	got, want := run(new(Queue)), run(new(refQueue))
	if len(got) != 2*(5000+4*200) {
		t.Fatalf("dispatched %d events, want %d", len(got)/2, 5000+4*200)
	}
	diffRecords(t, "wrap-around", got, want)
}

// TestZeroAllocSteadyState pins the zero-allocation contract: once warmed
// up, scheduling and dispatching events allocates nothing, on the wheel and
// on the far heap alike (every 64th event is a quantum-scale outlier) —
// including when the dispatch loop runs with cancellation checks enabled
// (RunChecked with a non-blocking Done-channel probe, exactly what a
// context-carrying sim.Run does).
func TestZeroAllocSteadyState(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		fn := func() {}
		// Warm up: every slot and the far heap reach steady-state capacity.
		for i := 0; i < 4*span; i++ {
			q.After(uint64(i%span), fn)
		}
		for i := 0; i < 64; i++ {
			q.After(50000, fn)
		}
		q.Run()
		// The check closure mirrors sim.Run's cancellation probe: a
		// non-blocking receive on a Done channel. Built once, outside the
		// measured region.
		done := make(chan struct{})
		cont := func() bool {
			select {
			case <-done:
				return false
			default:
				return true
			}
		}
		for name, drive := range map[string]func(){
			"Run":        func() { q.Run() },
			"RunChecked": func() { q.RunChecked(8, cont) },
		} {
			avg := testing.AllocsPerRun(100, func() {
				for i := 0; i < 64; i++ {
					d := uint64(i % 257)
					if i == 0 {
						d = 50000 // quantum-scale outlier: the far path
					}
					q.After(d, fn)
				}
				drive()
			})
			if avg != 0 {
				t.Errorf("%s: steady-state allocs per 64-event batch = %v, want 0", name, avg)
			}
		}
	})
}

// TestRunChecked verifies the bounded-latency contract: cont is consulted
// every `every` events, and a false return stops dispatch within that
// window, leaving the remaining events pending.
func TestRunChecked(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		ran := 0
		for i := 0; i < 100; i++ {
			q.At(uint64(i), func() { ran++ })
		}
		checks := 0
		q.RunChecked(10, func() bool {
			checks++
			return checks < 3 // stop at the third check
		})
		if ran != 30 {
			t.Errorf("dispatched %d events before stop, want 30", ran)
		}
		if q.Len() != 70 {
			t.Errorf("pending after stop = %d, want 70", q.Len())
		}
		// every == 0 falls back to an uncheckable full run.
		q.RunChecked(0, func() bool { t.Fatal("cont called with every=0"); return false })
		if ran != 100 || q.Len() != 0 {
			t.Errorf("full run after stop: ran=%d pending=%d", ran, q.Len())
		}
	})
}

// TestDrain verifies drain-on-cancel: pending events are discarded without
// running, the count is reported, and the queue remains usable.
func TestDrain(t *testing.T) {
	impls(t, func(t *testing.T, newQ func() queue) {
		q := newQ()
		ran := 0
		for i := 0; i < 50; i++ {
			q.At(uint64(i*3), func() { ran++ })
		}
		q.RunChecked(10, func() bool { return false })
		if ran != 10 {
			t.Fatalf("ran %d before cancel, want 10", ran)
		}
		if n := q.Drain(); n != 40 {
			t.Errorf("Drain() = %d, want 40", n)
		}
		if q.Len() != 0 {
			t.Errorf("Len after drain = %d, want 0", q.Len())
		}
		if ran != 10 {
			t.Errorf("drain ran events: ran = %d, want 10", ran)
		}
		// The queue is reusable after a drain.
		q.After(5, func() { ran++ })
		q.Run()
		if ran != 11 {
			t.Errorf("post-drain event did not run: ran = %d", ran)
		}
		if n := q.Drain(); n != 0 {
			t.Errorf("Drain of empty queue = %d, want 0", n)
		}
	})
}
