package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// stubConfigHash is the config-hash header every stub response echoes.
const stubConfigHash = "deadbeef"

// stubServer fakes simserved's predict surface: instant 200s with tier and
// config-hash headers, an optional per-request delay, and an in-flight
// high-water mark to observe open-loop concurrency. It records the last
// traceparent header it saw.
type stubServer struct {
	delay     time.Duration
	inflight  atomic.Int64
	peak      atomic.Int64
	lastTrace atomic.Value // string: last traceparent header
}

func (s *stubServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cur := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			break
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-r.Context().Done():
			return
		}
	}
	s.lastTrace.Store(r.Header.Get(api.HeaderTraceparent))
	w.Header().Set(api.HeaderTier, "analytical")
	w.Header().Set(api.HeaderConfigHash, stubConfigHash)
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"omega":0.1}`))
}

func TestRunEmptySchedule(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
}

// TestRunOpenLoop drives a fast stub at 500 rps and checks the complete,
// ordered record log: every scheduled request fired, got its tier header,
// and was dispatched close to its schedule slot.
func TestRunOpenLoop(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	sched, err := Schedule(ScheduleConfig{Mode: ModePoisson, RPS: 500, Duration: 400 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	recs, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Body:     []byte(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":2}`),
		Schedule: sched,
		Conns:    8,
		Tenant:   "team-a",
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sched) {
		t.Fatalf("records = %d, want %d", len(recs), len(sched))
	}
	seenTraces := make(map[string]bool, len(recs))
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("records not ordered by seq: %d at %d", r.Seq, i)
		}
		if r.Status != http.StatusOK {
			t.Errorf("seq %d: status %d (%s)", i, r.Status, r.Error)
		}
		if r.Tier != "analytical" {
			t.Errorf("seq %d: tier %q", i, r.Tier)
		}
		if r.Tenant != "team-a" {
			t.Errorf("seq %d: tenant %q", i, r.Tenant)
		}
		if r.ConfigHash != stubConfigHash {
			t.Errorf("seq %d: config_hash %q, want %q", i, r.ConfigHash, stubConfigHash)
		}
		if want := telemetry.DeriveSpanContext(seed, int64(i)).Trace.String(); r.TraceID != want {
			t.Errorf("seq %d: trace_id %q, want derived %q", i, r.TraceID, want)
		}
		if seenTraces[r.TraceID] {
			t.Errorf("seq %d: duplicate trace_id %q", i, r.TraceID)
		}
		seenTraces[r.TraceID] = true
		if r.TotalMs <= 0 || r.FirstByteMs <= 0 || r.FirstByteMs > r.TotalMs+0.001 {
			t.Errorf("seq %d: latencies first_byte=%g total=%g", i, r.FirstByteMs, r.TotalMs)
		}
		if lag := r.SendMs - r.ScheduledMs; lag < -1 || lag > 200 {
			t.Errorf("seq %d: dispatch lag %.2fms", i, lag)
		}
	}
	// The wire side: the stub saw a well-formed traceparent carrying one
	// of the derived contexts.
	last, _ := stub.lastTrace.Load().(string)
	sc, ok := telemetry.ParseTraceparent(last)
	if !ok {
		t.Fatalf("stub saw malformed traceparent %q", last)
	}
	if !seenTraces[sc.Trace.String()] {
		t.Errorf("traceparent trace %s not among logged trace IDs", sc.Trace)
	}
}

// TestRunClientSpans checks that with a tracer attached each request
// emits one load.request span whose context matches the derived trace ID
// in its record.
func TestRunClientSpans(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	sched, err := Schedule(ScheduleConfig{Mode: ModeConst, RPS: 100, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	recs, err := Run(context.Background(), Config{BaseURL: ts.URL, Schedule: sched, Seed: 5, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]any{} // trace -> record
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev["event"] == "span.end" && ev["name"] == "load.request" {
			spans[ev["trace"].(string)] = ev
		}
	}
	if len(spans) != len(recs) {
		t.Fatalf("load.request spans = %d, want %d", len(spans), len(recs))
	}
	for _, r := range recs {
		ev, ok := spans[r.TraceID]
		if !ok {
			t.Fatalf("no span for trace %s", r.TraceID)
		}
		if ev["status"] != float64(http.StatusOK) || ev["seq"] != float64(r.Seq) {
			t.Errorf("span attrs %v do not match record %+v", ev, r)
		}
		if ev["parent"] != nil {
			t.Errorf("load.request should be a root span, got parent %v", ev["parent"])
		}
	}
}

// TestRunIsOpenLoop pins the defining property: with a server delay far
// longer than the inter-arrival gap, dispatch does not wait for
// completions — many requests are in flight at once and every one fires.
func TestRunIsOpenLoop(t *testing.T) {
	stub := &stubServer{delay: 300 * time.Millisecond}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	const n = 20
	sched, err := Schedule(ScheduleConfig{Mode: ModeConst, RPS: 100, Duration: n * 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	recs, err := Run(context.Background(), Config{BaseURL: ts.URL, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	// Closed-loop behavior would serialize to n×delay = 6s; the open loop
	// overlaps everything into roughly schedule span + one delay.
	if elapsed > 2*time.Second {
		t.Errorf("run took %s — dispatch appears to wait for completions", elapsed)
	}
	if peak := stub.peak.Load(); peak < 5 {
		t.Errorf("peak in-flight %d, want >= 5 (open loop overlaps requests)", peak)
	}
}

// TestRunCancel checks mid-run cancellation: dispatch stops, the context
// error is surfaced, and the records dispatched so far come back.
func TestRunCancel(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub)
	defer ts.Close()

	sched, err := Schedule(ScheduleConfig{Mode: ModeConst, RPS: 20, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	recs, err := Run(ctx, Config{BaseURL: ts.URL, Schedule: sched})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if len(recs) == 0 || len(recs) >= len(sched) {
		t.Errorf("records = %d of %d, want a proper prefix", len(recs), len(sched))
	}
}

// TestRunCurveAndShed drives both modes through the one send path
// against a stub that streams two curve points, then sheds every later
// request with a 429: a curve record is followed by its point records,
// a shed curve carries the server's error text, and a shed predict
// carries none (the predict log schema predates curve mode).
func TestRunCurveAndShed(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		if got := r.Header.Get("Accept"); got != api.ContentTypeNDJSON {
			t.Errorf("curve request Accept = %q, want %q", got, api.ContentTypeNDJSON)
		}
		w.Write([]byte(`{"point":{"cores":1,"tier":"analytical","config_hash":"aa"}}` + "\n" +
			`{"point":{"cores":2,"error":"shed (global): full"}}` + "\n" +
			`{"summary":{"points":2,"analytical":1,"simulation":0,"shed":1,"failed":0}}` + "\n"))
	}))
	defer ts.Close()

	sched := []time.Duration{0, 50 * time.Millisecond}
	recs, err := Run(context.Background(), Config{BaseURL: ts.URL, Curve: true, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %+v, want curve + 2 points + shed curve", recs)
	}
	if r := recs[0]; r.Kind != "curve" || r.Status != http.StatusOK || r.Error != "" || r.TotalMs <= 0 {
		t.Errorf("curve record = %+v", r)
	}
	if p := recs[1]; p.Kind != "point" || p.Seq != 0 || p.Cores != 1 || p.Tier != "analytical" || p.ConfigHash != "aa" || p.TraceID != recs[0].TraceID {
		t.Errorf("first point record = %+v", p)
	}
	if p := recs[2]; p.Kind != "point" || p.Cores != 2 || p.Error != "shed (global): full" {
		t.Errorf("second point record = %+v", p)
	}
	if r := recs[3]; r.Kind != "curve" || r.Seq != 1 || r.Status != http.StatusTooManyRequests || r.Error != "queue full" {
		t.Errorf("shed curve record = %+v", r)
	}

	recs, err = Run(context.Background(), Config{BaseURL: ts.URL, Schedule: sched[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if r := recs[0]; len(recs) != 1 || r.Kind != "" || r.Status != http.StatusTooManyRequests || r.Error != "" {
		t.Errorf("shed predict records = %+v, want one with no kind and no error text", recs)
	}
}
