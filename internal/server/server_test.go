package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newTestServer builds a predictor over a fresh runner at the given scale
// and mounts the handler. Confidence checks are disabled so any stored
// fit serves analytically.
func newTestServer(t testing.TB, scale float64, maxQueue int) (*Server, *model.Predictor) {
	t.Helper()
	r := experiments.NewRunner(workload.Tuning{RefScale: scale})
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9
	return New(Config{Predictor: p, MaxQueue: maxQueue, Metrics: telemetry.NewRegistry()}), p
}

// postPredict round-trips one predict request through the handler.
func postPredict(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodePredict(t *testing.T, w *httptest.ResponseRecorder) api.PredictResponse {
	t.Helper()
	var resp api.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return resp
}

// TestPredictAnalyticalHit warms one pair and checks a non-anchor query
// is answered from the fast path with the tier header and fit summary.
func TestPredictAnalyticalHit(t *testing.T) {
	if testing.Short() {
		t.Skip("warms by simulation")
	}
	s, p := newTestServer(t, 0.05, 0)
	spec, _ := machine.ByName("IntelUMA8")
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	w := postPredict(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Simserved-Tier"); got != "analytical" {
		t.Errorf("X-Simserved-Tier = %q, want analytical", got)
	}
	resp := decodePredict(t, w)
	if resp.Tier != "analytical" || resp.Fit == nil {
		t.Errorf("body tier=%q fit=%v, want analytical with fit", resp.Tier, resp.Fit)
	}
	if len(resp.ConfigHash) != 64 {
		t.Errorf("config_hash %q is not a SHA-256 hex", resp.ConfigHash)
	}
	if got := w.Header().Get("X-Simserved-Config-Hash"); got != resp.ConfigHash {
		t.Errorf("header hash %q != body hash %q", got, resp.ConfigHash)
	}
	if resp.Omega < 0 {
		t.Errorf("omega = %g, want >= 0", resp.Omega)
	}

	// cores omitted means the whole machine.
	w = postPredict(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("default-cores status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodePredict(t, w); resp.Cores != spec.TotalCores() {
		t.Errorf("default cores = %d, want %d", resp.Cores, spec.TotalCores())
	}
}

// TestPredictSimulationFallback checks a cold pair falls through to the
// simulation tier and reports it in header and body.
func TestPredictSimulationFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	s, _ := newTestServer(t, 0.05, 0)
	w := postPredict(t, s.Handler(), `{"machine":"IntelUMA8","program":"EP","class":"W","cores":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Simserved-Tier"); got != "simulation" {
		t.Errorf("X-Simserved-Tier = %q, want simulation", got)
	}
	resp := decodePredict(t, w)
	if resp.Tier != "simulation" || resp.Fit != nil {
		t.Errorf("body tier=%q fit=%v, want simulation without fit", resp.Tier, resp.Fit)
	}
	if resp.MakespanCycles <= 0 || resp.Cycles <= 0 {
		t.Errorf("non-positive measurements: cycles=%g makespan=%g", resp.Cycles, resp.MakespanCycles)
	}
}

// TestPredictValidation drives every 4xx path of the predict handler.
func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 0)
	h := s.Handler()

	cases := []struct {
		name string
		body string
		want int
		frag string
	}{
		{"bad json", `{`, http.StatusBadRequest, "invalid request body"},
		{"unknown field", `{"machine":"IntelUMA8","program":"CG","class":"W","core":3}`, http.StatusBadRequest, "unknown field"},
		{"unknown machine", `{"machine":"Cray1","program":"CG","class":"W"}`, http.StatusBadRequest, "Cray1"},
		{"unknown program", `{"machine":"IntelUMA8","program":"LU","class":"W"}`, http.StatusBadRequest, "unknown program"},
		{"unknown class", `{"machine":"IntelUMA8","program":"CG","class":"Z"}`, http.StatusBadRequest, "no class"},
		{"cores too high", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":99}`, http.StatusBadRequest, "out of range"},
		{"cores negative", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":-1}`, http.StatusBadRequest, "out of range"},
		{"scale mismatch", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":2,"scale":0.5}`, http.StatusBadRequest, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPredict(t, h, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			var e api.Error
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %q", w.Body.String())
			}
			if !strings.Contains(e.Error, tc.frag) {
				t.Errorf("error %q does not mention %q", e.Error, tc.frag)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", w.Code)
	}
	if got := w.Header().Get("Allow"); got != http.MethodPost {
		t.Errorf("Allow = %q, want POST", got)
	}
}

// TestPredictCanceled checks a client that is already gone gets the 499
// without the server burning a simulation.
func TestPredictCanceled(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":2}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
}

// TestAdmissionFull fills the simulation-tier admission queue and checks
// the next cold request is shed with 429 + Retry-After instead of queuing.
func TestAdmissionFull(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 1)
	ok, _ := s.adm.Acquire("other") // occupy the only global token
	if !ok {
		t.Fatal("could not occupy the admission token")
	}
	defer s.adm.Release("other")

	w := postPredict(t, s.Handler(), `{"machine":"IntelUMA8","program":"CG","class":"W","cores":2}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := w.Header().Get(api.HeaderAdmissionScope); got != api.ScopeGlobal {
		t.Errorf("scope header = %q, want %q", got, api.ScopeGlobal)
	}
	var e api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %q", w.Body.String())
	}
	if !strings.Contains(e.Error, "no_fit") {
		t.Errorf("shed response %q does not carry the decline reason", e.Error)
	}
}

// TestCatalogAndHealthz checks the two GET surfaces.
func TestCatalogAndHealthz(t *testing.T) {
	s, _ := newTestServer(t, 0.05, 0)
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/catalog", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("catalog status %d", w.Code)
	}
	var cat api.CatalogResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cat); err != nil {
		t.Fatal(err)
	}
	if cat.Scale != 0.05 || len(cat.Machines) == 0 || len(cat.Programs) == 0 {
		t.Errorf("catalog scale=%g machines=%d programs=%d", cat.Scale, len(cat.Machines), len(cat.Programs))
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/catalog", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST catalog status %d, want 405", w.Code)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var hz api.HealthzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.QueueCap != DefaultMaxQueue {
		t.Errorf("healthz = %+v", hz)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
}

// TestWorkloadErrorMessages pins the whole 400 message for an unknown
// program and for an unknown class, on both query endpoints: the program
// list is the sorted catalog, the class list the program's own order.
func TestWorkloadErrorMessages(t *testing.T) {
	h := newStubServer(&stubPredictor{}, 4).Handler()
	const (
		unknownProgram = `unknown program "LU" (have [CG EP FT IS MG SP canneal fluidanimate streamcluster x264])`
		unknownClass   = `program CG has no class "Z" (have [S W A B C])`
	)
	cases := []struct {
		name string
		post func(testing.TB, http.Handler, string) *httptest.ResponseRecorder
		body string
		want string
	}{
		{"predict program", postPredict, `{"machine":"IntelUMA8","program":"LU","class":"W"}`, unknownProgram},
		{"predict class", postPredict, `{"machine":"IntelUMA8","program":"CG","class":"Z"}`, unknownClass},
		{"curve program", postCurve, `{"machine":"IntelUMA8","program":"LU","class":"W"}`, unknownProgram},
		{"curve class", postCurve, `{"machine":"IntelUMA8","program":"CG","class":"Z"}`, unknownClass},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.post(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			var e api.Error
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %q", w.Body.String())
			}
			if e.Error != tc.want {
				t.Errorf("error = %q\nwant    %q", e.Error, tc.want)
			}
		})
	}
}

// TestConcurrentClients hammers the handler from many goroutines mixing
// analytical hits, catalog reads and health checks; run under -race this
// is the server's data-race certificate.
func TestConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("warms by simulation")
	}
	s, p := newTestServer(t, 0.05, 4)
	spec, _ := machine.ByName("IntelUMA8")
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch j % 3 {
				case 0:
					body := fmt.Sprintf(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":%d}`, 1+(i+j)%spec.TotalCores())
					w := postPredict(t, h, body)
					if w.Code != http.StatusOK {
						errs <- fmt.Errorf("predict status %d: %s", w.Code, w.Body.String())
						return
					}
				case 1:
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
					if w.Code != http.StatusOK {
						errs <- fmt.Errorf("healthz status %d", w.Code)
						return
					}
				default:
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
					if w.Code != http.StatusOK {
						errs <- fmt.Errorf("metrics status %d", w.Code)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictCountsOneDecline checks that a simulated query counts its
// analytical refusal once: one cold predict raises model_declines_total
// by exactly 1 and emits one model.decline event, and so does a cold
// one-point curve, because both ask the model once and then simulate.
func TestPredictCountsOneDecline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	var trace bytes.Buffer
	tr := telemetry.NewTracer(&trace)
	reg := telemetry.NewRegistry()
	p := model.New(experiments.NewRunner(workload.Tuning{RefScale: 0.05}))
	p.Metrics, p.Tracer = reg, tr
	h := New(Config{Predictor: p, Metrics: reg, Tracer: tr}).Handler()

	declines := func() (counted uint64, events int) {
		for _, line := range strings.Split(trace.String(), "\n") {
			if strings.Contains(line, `"event":"model.decline"`) {
				events++
			}
		}
		return reg.Counter("model_declines_total").Value(), events
	}
	w := postPredict(t, h, `{"machine":"IntelUMA8","program":"EP","class":"W","cores":2}`)
	if w.Code != http.StatusOK || w.Header().Get(api.HeaderTier) != api.TierSimulation {
		t.Fatalf("cold predict: status %d tier %q: %s", w.Code, w.Header().Get(api.HeaderTier), w.Body.String())
	}
	if counted, events := declines(); counted != 1 || events != 1 {
		t.Errorf("after one simulated predict: model_declines_total %d, model.decline events %d, want 1 and 1", counted, events)
	}
	w = postCurve(t, h, `{"machine":"IntelUMA8","program":"EP","class":"W","cores":[3]}`)
	if resp := decodeCurve(t, w); w.Code != http.StatusOK || resp.Summary.Simulation != 1 {
		t.Fatalf("cold curve: status %d summary %+v", w.Code, resp.Summary)
	}
	if counted, events := declines(); counted != 2 || events != 2 {
		t.Errorf("after a simulated one-point curve: model_declines_total %d, model.decline events %d, want 2 and 2", counted, events)
	}
}

// TestPredictFitNeverSaturates serves an analytical answer whose fit never
// saturates (μ/L = +Inf, as when the fitted L/r is not positive) on both
// endpoints: the body is whole JSON and omits saturation_cores, which
// JSON cannot carry as infinity.
func TestPredictFitNeverSaturates(t *testing.T) {
	stub := &stubPredictor{fit: &experiments.Fit{
		Anchors: []int{1, 4, 5}, R2: 1, Residual: 0.0002, SaturationCores: math.Inf(1),
	}}
	h := newStubServer(stub, 4).Handler()
	for _, c := range []struct {
		name string
		w    *httptest.ResponseRecorder
		fit  func([]byte) (*api.Fit, error)
	}{
		{"predict", postPredict(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W","cores":3}`),
			func(b []byte) (*api.Fit, error) {
				var resp api.PredictResponse
				return resp.Fit, json.Unmarshal(b, &resp)
			}},
		{"curve", postCurve(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W","cores":[3]}`),
			func(b []byte) (*api.Fit, error) {
				var resp api.CurveResponse
				return resp.Summary.Fit, json.Unmarshal(b, &resp)
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := c.w.Body.Bytes()
			if c.w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", c.w.Code, body)
			}
			fit, err := c.fit(body)
			if err != nil {
				t.Fatalf("body %q does not decode: %v", body, err)
			}
			if fit == nil || len(fit.Anchors) != 3 {
				t.Fatalf("fit = %+v, want the stub's fit", fit)
			}
			if fit.SaturationCores != nil || bytes.Contains(body, []byte("saturation_cores")) {
				t.Errorf("saturation_cores present for a fit that never saturates: %s", body)
			}
		})
	}
}
