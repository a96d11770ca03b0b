package memctrl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/eventq"
)

func cfg1() Config {
	return Config{
		Name:        "MC0",
		Channels:    1,
		Banks:       4,
		RowBytes:    4096,
		LineBytes:   64,
		HitLatency:  20,
		MissLatency: 60,
		Discipline:  FCFS,
	}
}

func mustNew(t *testing.T, cfg Config, q *eventq.Queue) *Controller {
	t.Helper()
	c, err := New(cfg, q)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestValidate(t *testing.T) {
	good := cfg1()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.HitLatency = 0 },
		func(c *Config) { c.MissLatency = 0 },
		func(c *Config) { c.MissLatency = 10; c.HitLatency = 20 },
	}
	for i, mutate := range cases {
		c := cfg1()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	var q eventq.Queue
	if _, err := New(cfg1(), nil); err == nil {
		t.Error("nil event queue accepted")
	}
	if _, err := New(Config{}, &q); err == nil {
		t.Error("zero config accepted")
	}
}

func TestSingleRequestTiming(t *testing.T) {
	var q eventq.Queue
	c := mustNew(t, cfg1(), &q)
	var doneAt uint64
	c.Submit(0, func() { doneAt = q.Now() })
	q.Run()
	if doneAt != 60 {
		t.Errorf("done at %d, want 60 (cold row miss)", doneAt)
	}
	s := c.Stats()
	if s.RowHits != 0 {
		t.Error("cold access counted as a row hit")
	}
	if s.Requests != 1 || s.TotalWait != 0 || s.BusyCycles != 60 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRowBufferHit(t *testing.T) {
	var q eventq.Queue
	c := mustNew(t, cfg1(), &q)
	var times []uint64
	var hits []uint64 // Stats().RowHits as each request completes
	cb := func() {
		times = append(times, q.Now())
		hits = append(hits, c.Stats().RowHits)
	}
	c.Submit(0, cb)   // row 0, miss, 60
	c.Submit(128, cb) // same row, hit, +20
	q.Run()
	if len(times) != 2 || times[0] != 60 || times[1] != 80 {
		t.Errorf("times = %v", times)
	}
	if len(hits) != 2 || hits[0] != 0 || hits[1] != 1 {
		t.Errorf("row hits at each completion = %v, want [0 1]", hits)
	}
	if rh := c.Stats().RowHits; rh != 1 {
		t.Errorf("row hits = %d", rh)
	}
}

func TestFCFSQueueing(t *testing.T) {
	var q eventq.Queue
	c := mustNew(t, cfg1(), &q)
	var order []uint64
	for i := 0; i < 3; i++ {
		addr := uint64(i) * 8192 // distinct rows -> all misses, same channel? no: route by line
		// Force same channel by using addresses that are multiples of
		// LineBytes*Channels; with Channels=1 every address shares channel 0.
		c.Submit(addr, func() { order = append(order, addr) })
	}
	q.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 8192 || order[2] != 16384 {
		t.Errorf("completion order = %v", order)
	}
	s := c.Stats()
	// Waits: 0, 60, 120 => total 180.
	if s.TotalWait != 180 {
		t.Errorf("total wait = %d, want 180", s.TotalWait)
	}
	if s.AvgWait() != 60 {
		t.Errorf("avg wait = %v", s.AvgWait())
	}
	if r := s.AvgWait() + s.AvgService(); r != 120 {
		t.Errorf("avg response = %v", r)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := cfg1()
	cfg.Discipline = FRFCFS
	var q eventq.Queue
	c := mustNew(t, cfg, &q)
	var order []string
	// First request opens row 0. While it is in service, enqueue a
	// different-row request then a same-row request; FR-FCFS should service
	// the row hit first.
	c.Submit(0, func() { order = append(order, "first") })
	c.Submit(8192, func() { order = append(order, "other-row") })
	c.Submit(64, func() { order = append(order, "same-row") })
	q.Run()
	if len(order) != 3 || order[1] != "same-row" || order[2] != "other-row" {
		t.Errorf("order = %v", order)
	}
	// Under FCFS the other-row request would finish first.
	var q2 eventq.Queue
	c2 := mustNew(t, cfg1(), &q2)
	order = order[:0]
	c2.Submit(0, func() { order = append(order, "first") })
	c2.Submit(8192, func() { order = append(order, "other-row") })
	c2.Submit(64, func() { order = append(order, "same-row") })
	q2.Run()
	if order[1] != "other-row" {
		t.Errorf("FCFS order = %v", order)
	}
}

func TestChannelInterleaving(t *testing.T) {
	cfg := cfg1()
	cfg.Channels = 2
	var q eventq.Queue
	c := mustNew(t, cfg, &q)
	var times []uint64
	// Lines 0 and 1 go to different channels: serviced in parallel.
	c.Submit(0, func() { times = append(times, q.Now()) })
	c.Submit(64, func() { times = append(times, q.Now()) })
	q.Run()
	if len(times) != 2 || times[0] != 60 || times[1] != 60 {
		t.Errorf("parallel channels times = %v", times)
	}
	if c.Stats().TotalWait != 0 {
		t.Errorf("wait = %d, want 0", c.Stats().TotalWait)
	}
}

func TestOccupancy(t *testing.T) {
	var q eventq.Queue
	cfg := cfg1()
	cfg.Channels = 2
	c := mustNew(t, cfg, &q)
	noop := func() {}
	for i := 0; i < 5; i++ {
		c.Submit(uint64(i)*8192, noop) // all on channel 0
	}
	c.Submit(64, noop) // channel 1
	// One in service and four queued on channel 0, one in service on 1.
	if got := c.Occupancy(); got != 6 {
		t.Errorf("Occupancy = %d, want 6", got)
	}
	q.Run()
	if got := c.Occupancy(); got != 0 {
		t.Errorf("Occupancy = %d after drain, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	var q eventq.Queue
	c := mustNew(t, cfg1(), &q)
	c.Submit(0, func() {})
	c.Submit(8192, func() {})
	q.Run()
	// 2 misses back-to-back: busy 120 cycles, elapsed 120 -> utilization 1.
	u := c.Stats().Utilization(q.Now(), 1)
	if math.Abs(u-1) > 1e-12 {
		t.Errorf("utilization = %v, want 1", u)
	}
	if (Stats{}).Utilization(0, 1) != 0 {
		t.Error("zero elapsed utilization should be 0")
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.AvgWait() != 0 || s.AvgService() != 0 || s.RowHitRatio() != 0 {
		t.Error("zero stats should yield zero averages")
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFS.String() != "fcfs" || FRFCFS.String() != "fr-fcfs" || Discipline(9).String() != "unknown" {
		t.Error("discipline strings wrong")
	}
}

// Under heavy random load the controller must conserve requests (every
// submission completes exactly once) and waits must grow with load.
func TestConservationUnderLoad(t *testing.T) {
	var q eventq.Queue
	cfg := cfg1()
	cfg.Channels = 2
	cfg.Discipline = FRFCFS
	c := mustNew(t, cfg, &q)
	rng := rand.New(rand.NewSource(2))
	const n = 2000
	completed := 0
	submitted := 0
	var submit func()
	submit = func() {
		if submitted >= n {
			return
		}
		submitted++
		addr := uint64(rng.Intn(1 << 24))
		c.Submit(addr, func() { completed++ })
		// Next arrival after a small random gap.
		q.After(uint64(rng.Intn(30)), submit)
	}
	submit()
	q.Run()
	if completed != n {
		t.Errorf("completed %d of %d", completed, n)
	}
	if got := c.Stats().Requests; got != n {
		t.Errorf("stats requests = %d", got)
	}
}

// A completion callback that immediately submits new work must not start a
// second request on the still-busy channel: channel busy time can never
// exceed elapsed time (regression test for an overlap bug that inflated
// effective bandwidth).
func TestNoServiceOverlapFromCallbackSubmit(t *testing.T) {
	var q eventq.Queue
	c := mustNew(t, cfg1(), &q)
	// Seed the queue with several requests, then have every completion
	// submit a fresh one, up to a bound.
	remaining := 50
	var onDone func()
	onDone = func() {
		if remaining > 0 {
			remaining--
			c.Submit(uint64(remaining)*8192, onDone)
		}
	}
	for i := 0; i < 5; i++ {
		c.Submit(uint64(1000+i)*8192, onDone)
	}
	q.Run()
	s := c.Stats()
	if s.BusyCycles > q.Now() {
		t.Errorf("busy %d cycles exceeds elapsed %d: overlapping service", s.BusyCycles, q.Now())
	}
	if s.Requests != 55 {
		t.Errorf("requests = %d, want 55", s.Requests)
	}
}

// An M/M/1-like arrival pattern at increasing rates should show increasing
// average wait — the contention mechanism the paper models.
func TestWaitGrowsWithLoad(t *testing.T) {
	runLoad := func(gap uint64) float64 {
		var q eventq.Queue
		c := mustNew(t, cfg1(), &q)
		rng := rand.New(rand.NewSource(5))
		const n = 3000
		submitted := 0
		var submit func()
		submit = func() {
			if submitted >= n {
				return
			}
			submitted++
			addr := uint64(rng.Intn(1<<28)) &^ 63
			c.Submit(addr, func() {})
			q.After(gap, submit)
		}
		submit()
		q.Run()
		return c.Stats().AvgWait()
	}
	wSlow := runLoad(200) // light load: ~no waiting
	wFast := runLoad(55)  // beyond saturation (service ~60)
	if wSlow > 5 {
		t.Errorf("light-load wait = %v, want ~0", wSlow)
	}
	if wFast < 4*wSlow+10 {
		t.Errorf("heavy-load wait %v not much larger than light-load %v", wFast, wSlow)
	}
}
