package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newTracedServer builds a server whose tracer, runner and predictor all
// share one span sink, mirroring how cmd/simserved wires -trace-out.
func newTracedServer(t testing.TB, scale float64) (*Server, *model.Predictor, *bytes.Buffer) {
	t.Helper()
	buf := &bytes.Buffer{}
	tr := telemetry.NewTracer(buf)
	r := experiments.NewRunner(workload.Tuning{RefScale: scale})
	r.Tracer = tr
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9
	p.Tracer = tr
	s := New(Config{Predictor: p, Metrics: telemetry.NewRegistry(), Tracer: tr})
	return s, p, buf
}

// spanRecord is one span.end NDJSON line.
type spanRecord struct {
	Event   string  `json:"event"`
	Name    string  `json:"name"`
	Trace   string  `json:"trace"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Status  int     `json:"status"`
	Tier    string  `json:"tier"`
}

func parseSpans(t *testing.T, buf *bytes.Buffer) map[string]spanRecord {
	t.Helper()
	spans := map[string]spanRecord{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec spanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Event == "span.end" {
			spans[rec.Name] = rec
		}
	}
	return spans
}

// TestPredictSpanTreeAnalytical drives a fast-path request carrying a
// client traceparent and checks the server emits a complete span tree
// joined to the client's trace, echoing the trace ID in the response.
func TestPredictSpanTreeAnalytical(t *testing.T) {
	if testing.Short() {
		t.Skip("warms by simulation")
	}
	s, p, buf := newTracedServer(t, 0.05)
	spec, _ := machine.ByName("IntelUMA8")
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}
	buf.Reset() // drop warm-time events; only the request matters
	h := s.Handler()

	client := telemetry.DeriveSpanContext(7, 0)
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}`))
	req.Header.Set(api.HeaderTraceparent, client.Traceparent())
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(api.HeaderTrace); got != client.Trace.String() {
		t.Errorf("%s = %q, want client trace %s", api.HeaderTrace, got, client.Trace)
	}

	spans := parseSpans(t, buf)
	root, ok := spans["server.request"]
	if !ok {
		t.Fatalf("no server.request span:\n%s", buf.String())
	}
	if root.Trace != client.Trace.String() || root.Parent != client.Span.String() {
		t.Errorf("root trace/parent = %s/%s, want %s/%s",
			root.Trace, root.Parent, client.Trace, client.Span)
	}
	if root.Status != 200 || root.Tier != "analytical" {
		t.Errorf("root status=%d tier=%q, want 200/analytical", root.Status, root.Tier)
	}
	for _, name := range []string{"server.parse", "server.model", "server.respond"} {
		child, ok := spans[name]
		if !ok {
			t.Fatalf("missing %s span:\n%s", name, buf.String())
		}
		if child.Parent != root.Span || child.Trace != root.Trace {
			t.Errorf("%s parent/trace = %s/%s, want %s/%s",
				name, child.Parent, child.Trace, root.Span, root.Trace)
		}
		if child.StartUs < root.StartUs || child.EndUs > root.EndUs {
			t.Errorf("%s [%v,%v] outside root [%v,%v]",
				name, child.StartUs, child.EndUs, root.StartUs, root.EndUs)
		}
	}
	if _, ok := spans["server.admit"]; ok {
		t.Error("analytical hit should not open an admission span")
	}
	if _, ok := spans["server.sim"]; ok {
		t.Error("analytical hit should not open a simulation span")
	}
}

// TestPredictSpanTreeSimulation drives a cold pair into the simulation
// fallback and checks the admission, sim, runner and refit spans all hang
// off the request trace.
func TestPredictSpanTreeSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s, _, buf := newTracedServer(t, 0.05)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"machine":"IntelUMA8","program":"EP","class":"W","cores":2}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}

	spans := parseSpans(t, buf)
	root, ok := spans["server.request"]
	if !ok {
		t.Fatalf("no server.request span:\n%s", buf.String())
	}
	if root.Parent != "" {
		t.Errorf("root has parent %q; no traceparent was sent", root.Parent)
	}
	if root.Tier != "simulation" {
		t.Errorf("root tier = %q, want simulation", root.Tier)
	}
	for _, name := range []string{
		"server.parse", "server.model", "server.admit", "server.sim",
		"server.respond", "runner.queue_wait", "runner.execute", "model.refit",
	} {
		rec, ok := spans[name]
		if !ok {
			t.Fatalf("missing %s span:\n%s", name, buf.String())
		}
		if rec.Trace != root.Trace {
			t.Errorf("%s trace = %s, want %s", name, rec.Trace, root.Trace)
		}
	}
	// Runner spans parent under the request root (propagated via ctx).
	if got := spans["runner.execute"].Parent; got != root.Span {
		t.Errorf("runner.execute parent = %s, want root %s", got, root.Span)
	}
	// The sim span must dominate the root: this is the waterfall's
	// critical path for a fallback request.
	simSpan := spans["server.sim"]
	if dur, rootDur := simSpan.EndUs-simSpan.StartUs, root.EndUs-root.StartUs; dur < 0.5*rootDur {
		t.Errorf("server.sim %.0fus is under half of root %.0fus", dur, rootDur)
	}
}

// TestPredictTraceHeaderOn4xx checks failed requests still echo a trace
// ID and close the root span with the error status.
func TestPredictTraceHeaderOn4xx(t *testing.T) {
	s, _, buf := newTracedServer(t, 0.05)
	w := postPredict(t, s.Handler(), `{"machine":"NoSuchMachine","program":"CG","class":"W"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	trace := w.Header().Get(api.HeaderTrace)
	if len(trace) != 32 {
		t.Fatalf("%s = %q, want 32-hex trace ID", api.HeaderTrace, trace)
	}
	spans := parseSpans(t, buf)
	root := spans["server.request"]
	if root.Trace != trace || root.Status != 400 {
		t.Errorf("root trace=%q status=%d, want %q/400", root.Trace, root.Status, trace)
	}
	if _, ok := spans["server.parse"]; !ok {
		t.Error("missing server.parse span on a validation failure")
	}
}

// TestTracingOffNoHeaderNoSpans pins the off state: no X-Simserved-Trace
// header and (trivially) no span output.
func TestTracingOffNoHeaderNoSpans(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 0)
	w := postPredict(t, s.Handler(), `{"machine":"NoSuchMachine","program":"CG","class":"W"}`)
	if got := w.Header().Get(api.HeaderTrace); got != "" {
		t.Errorf("%s = %q with tracing off, want empty", api.HeaderTrace, got)
	}
}

// TestRequestTraceNilSafe pins the zero-cost-when-off contract at the
// wrapper level: every method of a nil *requestTrace is a no-op and the
// whole per-request span choreography allocates nothing.
func TestRequestTraceNilSafe(t *testing.T) {
	var rt *requestTrace
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rt.beginParse()
		rt.endParse(true)
		rt.beginModel()
		rt.endModel("no_fit")
		rt.beginAdmit()
		rt.endAdmit("tenant", true, api.ScopeGlobal)
		rt.beginSim()
		rt.endSim(nil)
		rt.beginRespond()
		rt.endRespond()
		rt.finish(200, "analytical")
		rt.endPoint(rt.startPoint(), 3, "analytical")
		rt.failPoint(rt.startPoint(), 4, "shed")
		if rt.context(ctx) != ctx {
			t.Fatal("nil requestTrace must return ctx unchanged")
		}
		if rt.traceID() != "" {
			t.Fatal("nil requestTrace must have no trace ID")
		}
	})
	if allocs != 0 {
		t.Errorf("nil requestTrace choreography allocates %.1f/op, want 0", allocs)
	}
}

// TestPredictTracingOffAllocations compares whole-handler allocations
// with tracing off vs on for the same warmed analytical request: tracing
// on must cost extra allocations (the spans exist), and that entire cost
// must vanish when tracing is off.
func TestPredictTracingOffAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("warms by simulation")
	}
	spec, _ := machine.ByName("IntelUMA8")
	body := `{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}`

	measure := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
	}

	off, p := newTestServer(t, 0.05, 0)
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}
	on, pOn, _ := newTracedServer(t, 0.05)
	if _, err := pOn.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}

	offAllocs, onAllocs := measure(off.Handler()), measure(on.Handler())
	if onAllocs <= offAllocs {
		t.Logf("tracing on %.1f allocs/req, off %.1f — spans unexpectedly free", onAllocs, offAllocs)
	}
	// The off path must not pay for span plumbing: allow only the
	// baseline handler cost (recorder, decoder, response encoding).
	if offAllocs >= onAllocs && onAllocs > 0 {
		t.Errorf("tracing off (%.1f allocs/req) costs as much as on (%.1f)", offAllocs, onAllocs)
	}
}

// TestCurveTracingOffAllocations pins what a traced-off curve pays per
// analytical point: the allocation of its response point and nothing for
// its span. It compares a one-point curve with the full 48-point sweep;
// the marginal allocations per added point must stay at one, give or take
// half an allocation for the slices the handler grows. A span call that
// boxes the tier attribute before checking that tracing is on adds one.
// The shed and simulated points' span calls are covered by
// TestRequestTraceNilSafe.
func TestCurveTracingOffAllocations(t *testing.T) {
	h := newStubServer(&stubPredictor{}, 0).Handler()
	measure := func(cores string) float64 {
		body := `{"machine":"AMDNUMA48","program":"CG","class":"W"` + cores + `}`
		return testing.AllocsPerRun(100, func() {
			if w := postCurve(t, h, body); w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		})
	}
	one, full := measure(`,"cores":[1]`), measure("")
	if perPoint := (full - one) / 47; perPoint > 1.5 {
		t.Errorf("tracing off: %.2f allocs per analytical point (%.0f for one point, %.0f for all 48), want 1",
			perPoint, one, full)
	}
}
