package memctrl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/eventq"
	"repro/internal/mmq"
)

// The paper's premise is that a memory controller under non-bursty traffic
// behaves like an M/M/1 queue. These tests drive the simulated controller
// with Poisson arrivals and exponential-ish service and compare the
// measured waits against queueing theory — bridging the analytical model
// (internal/mmq) and the discrete-event substrate.

// poissonDrive submits n requests with Exp(lambda) inter-arrival times and
// returns the measured mean response time (wait + service).
func poissonDrive(t *testing.T, cfg Config, lambda float64, n int, seed int64) float64 {
	t.Helper()
	var q eventq.Queue
	c, err := New(cfg, &q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	submitted := 0
	var submit func()
	submit = func() {
		if submitted >= n {
			return
		}
		submitted++
		// Uniformly random addresses: effectively no row hits with a large
		// address space, so service ~= MissLatency deterministically.
		addr := uint64(rng.Int63n(1<<40)) &^ 63
		c.Submit(addr, func() {})
		gap := rng.ExpFloat64() / lambda
		if gap < 1 {
			gap = 1
		}
		q.After(uint64(gap), submit)
	}
	submit()
	q.Run()
	s := c.Stats()
	return s.AvgWait() + s.AvgService()
}

// TestMD1MatchesTheory: deterministic service (row misses only), Poisson
// arrivals -> M/D/1. The measured response must match Pollaczek–Khinchine
// within simulation noise.
func TestMD1MatchesTheory(t *testing.T) {
	cfg := Config{
		Name: "t", Channels: 1, Banks: 1, RowBytes: 64, LineBytes: 64,
		// RowBytes == LineBytes: every random access opens a new row.
		HitLatency: 50, MissLatency: 50, Discipline: FCFS,
	}
	s := 50.0
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		lambda := rho / s
		got := poissonDrive(t, cfg, lambda, 30000, 42)
		md1 := mmq.Deterministic(lambda, s)
		want, err := md1.ResponseTime()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > 0.08 {
			t.Errorf("rho=%.1f: measured W=%.1f vs M/D/1 W=%.1f (%.1f%% off)",
				rho, got, want, 100*rel)
		}
	}
}

// TestTwoChannelsMatchSplitTheory: the controller interleaves requests
// across channels by address, so with uniformly random addresses each
// channel is an independent M/D/1 queue at half the arrival rate — not a
// shared-queue M/D/2. The measurement must match the split-queue formula.
func TestTwoChannelsMatchSplitTheory(t *testing.T) {
	cfg := Config{
		Name: "t", Channels: 2, Banks: 1, RowBytes: 64, LineBytes: 64,
		HitLatency: 50, MissLatency: 50, Discipline: FCFS,
	}
	s := 50.0
	lambda := 0.8 / s * 2 // rho = 0.8 per channel after the split
	got := poissonDrive(t, cfg, lambda, 30000, 7)
	perChannel := mmq.Deterministic(lambda/2, s)
	want, err := perChannel.ResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 0.08 {
		t.Errorf("2-channel W=%.1f vs split M/D/1 W=%.1f (%.1f%% off)",
			got, want, 100*rel)
	}
}

// TestRowBufferLocalityImprovesService: sequential addresses within DRAM
// rows must yield a lower average service time than random rows, matching
// the hit/miss latency mix.
func TestRowBufferLocalityImprovesService(t *testing.T) {
	cfg := Config{
		Name: "t", Channels: 1, Banks: 1, RowBytes: 4096, LineBytes: 64,
		HitLatency: 20, MissLatency: 80, Discipline: FCFS,
	}
	var q eventq.Queue
	c, err := New(cfg, &q)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential: 64 lines per 4 KB row -> 63/64 row hits.
	for i := 0; i < 6400; i++ {
		c.Submit(uint64(i)*64, func() {})
		q.RunUntil(q.Now() + 100)
	}
	q.Run()
	seqSvc := c.Stats().AvgService()
	wantSeq := (1.0*80 + 63.0*20) / 64
	if math.Abs(seqSvc-wantSeq) > 2 {
		t.Errorf("sequential avg service = %.1f, want ~%.1f", seqSvc, wantSeq)
	}
}
