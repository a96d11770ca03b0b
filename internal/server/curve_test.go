package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// stubPredictor is a hand-wired Predictor for curve-handler tests. The
// fill-first activation order of the presets makes per-point saturation
// unreachable (the per-socket occupancy never exceeds the fitted range),
// so a mixed analytical/simulation curve cannot be provoked through the
// real model; the stub declines exactly the cores in declineSet and
// gates its simulation tier on a channel so tests can observe what was
// flushed before any simulation completed.
type stubPredictor struct {
	declineSet map[int]bool
	gate       chan struct{}         // PredictStream blocks here when non-nil
	simErr     func(cores int) error // per-point simulation failure when non-nil
	fit        *experiments.Fit      // the fit behind every analytical answer
}

func (s *stubPredictor) Scale() float64  { return 1 }
func (s *stubPredictor) FitCount() int   { return 1 }
func (s *stubPredictor) CachedRuns() int { return 0 }

func (s *stubPredictor) pred(spec machine.Spec, program string, class workload.Class, cores int, tier model.Tier) model.Prediction {
	return model.Prediction{
		Machine: spec.Name, Program: program, Class: class, Cores: cores, Scale: 1,
		Omega: float64(cores) / 10, Cycles: float64(1000 + cores), BaselineCycles: 1000,
		MakespanCycles: float64(1000+cores) / float64(cores),
		Tier:           tier, ConfigHash: "stubhash",
	}
}

func (s *stubPredictor) AnalyticalCurve(spec machine.Spec, program string, class workload.Class, cores []int) ([]model.Prediction, []experiments.DeclineReason) {
	preds := make([]model.Prediction, len(cores))
	reasons := make([]experiments.DeclineReason, len(cores))
	for i, n := range cores {
		if s.declineSet[n] {
			reasons[i] = experiments.DeclineNoFit
			continue
		}
		preds[i] = s.pred(spec, program, class, n, model.TierAnalytical)
		preds[i].Fit = s.fit
	}
	return preds, reasons
}

func (s *stubPredictor) PredictStream(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores []int, fn func(i int, pred model.Prediction, err error)) {
	if s.gate != nil {
		<-s.gate
	}
	for i, n := range cores {
		if err := ctx.Err(); err != nil {
			fn(i, model.Prediction{}, err)
			continue
		}
		if s.simErr != nil {
			if err := s.simErr(n); err != nil {
				fn(i, model.Prediction{}, err)
				continue
			}
		}
		fn(i, s.pred(spec, program, class, n, model.TierSimulation), nil)
	}
}

func newStubServer(stub *stubPredictor, maxQueue int) *Server {
	return New(Config{Predictor: stub, MaxQueue: maxQueue, Metrics: telemetry.NewRegistry()})
}

func postCurve(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, api.PathCurve, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeCurve(t *testing.T, w *httptest.ResponseRecorder) api.CurveResponse {
	t.Helper()
	var resp api.CurveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad curve body %q: %v", w.Body.String(), err)
	}
	return resp
}

// TestCurveBatchedMixedTiers drives a mixed curve through the batched
// mode: odd cores answer analytically, even cores fall to the stub's
// simulation tier, and the response holds every point in request order.
func TestCurveBatchedMixedTiers(t *testing.T) {
	stub := &stubPredictor{declineSet: map[int]bool{2: true, 4: true, 6: true, 8: true}}
	s := newStubServer(stub, 8)
	h := s.Handler()

	w := postCurve(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != api.ContentTypeJSON {
		t.Errorf("Content-Type = %q, want %q", ct, api.ContentTypeJSON)
	}
	resp := decodeCurve(t, w)
	if len(resp.Points) != 8 {
		t.Fatalf("points = %d, want the full 1..8 sweep", len(resp.Points))
	}
	for i, pt := range resp.Points {
		if pt.Cores != i+1 {
			t.Errorf("point %d cores = %d, want request order %d", i, pt.Cores, i+1)
		}
		wantTier := api.TierAnalytical
		if stub.declineSet[pt.Cores] {
			wantTier = api.TierSimulation
		}
		if pt.Tier != wantTier {
			t.Errorf("cores %d tier = %q, want %q", pt.Cores, pt.Tier, wantTier)
		}
		if pt.Error != "" {
			t.Errorf("cores %d error = %q, want none", pt.Cores, pt.Error)
		}
	}
	sum := resp.Summary
	if sum.Points != 8 || sum.Analytical != 4 || sum.Simulation != 4 || sum.Shed != 0 || sum.Failed != 0 {
		t.Errorf("summary = %+v, want 8 points split 4/4", sum)
	}
	if s.adm.Depth() != 0 {
		t.Errorf("admission depth = %d after curve, want 0 (tokens released)", s.adm.Depth())
	}
}

// TestCurveStreamingAnalyticalFirst pins the tentpole ordering contract:
// with the stub's simulation tier gated shut, every analytical point is
// already flushed to the client; the simulation points and the summary
// arrive only after the gate opens.
func TestCurveStreamingAnalyticalFirst(t *testing.T) {
	stub := &stubPredictor{
		declineSet: map[int]bool{2: true, 4: true, 6: true, 8: true},
		gate:       make(chan struct{}),
	}
	s := newStubServer(stub, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+api.PathCurve,
		strings.NewReader(`{"machine":"IntelUMA8","program":"CG","class":"W"}`))
	req.Header.Set("Accept", api.ContentTypeNDJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, api.ContentTypeNDJSON)
	}

	// With the gate closed, exactly the four analytical frames are
	// readable; a blocked Read here would mean the handler buffered the
	// cheap points behind the expensive ones.
	sc := bufio.NewScanner(resp.Body)
	var analytical []api.CurveFrame
	done := make(chan error, 1)
	go func() {
		for len(analytical) < 4 {
			if !sc.Scan() {
				done <- fmt.Errorf("stream ended after %d frames: %v", len(analytical), sc.Err())
				return
			}
			var fr api.CurveFrame
			if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
				done <- fmt.Errorf("bad frame %q: %v", sc.Text(), err)
				return
			}
			analytical = append(analytical, fr)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("analytical frames not flushed while simulation tier blocked")
	}
	for _, fr := range analytical {
		if fr.Point == nil || fr.Point.Tier != api.TierAnalytical {
			t.Fatalf("pre-gate frame %+v, want analytical point", fr)
		}
	}

	close(stub.gate)
	var simFrames, summaries int
	for sc.Scan() {
		var fr api.CurveFrame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		switch {
		case fr.Point != nil:
			if fr.Point.Tier != api.TierSimulation {
				t.Errorf("post-gate point tier = %q, want simulation", fr.Point.Tier)
			}
			simFrames++
		case fr.Summary != nil:
			summaries++
			if fr.Summary.Points != 8 || fr.Summary.Analytical != 4 || fr.Summary.Simulation != 4 {
				t.Errorf("summary = %+v, want 8 points split 4/4", fr.Summary)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if simFrames != 4 || summaries != 1 {
		t.Errorf("post-gate frames: %d sim + %d summaries, want 4 + 1 terminal summary", simFrames, summaries)
	}
}

// TestCurveValidation sweeps the 400 family plus the 405.
func TestCurveValidation(t *testing.T) {
	s := newStubServer(&stubPredictor{}, 4)
	h := s.Handler()
	cases := []struct {
		name, body string
		wantIn     string
	}{
		{"bad json", `{`, "invalid request body"},
		{"unknown field", `{"machine":"IntelUMA8","program":"CG","class":"W","corez":[1]}`, "unknown field"},
		{"bad machine", `{"machine":"Cray1","program":"CG","class":"W"}`, "unknown preset"},
		{"bad program", `{"machine":"IntelUMA8","program":"QQ","class":"W"}`, "unknown program"},
		{"cores out of range", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":[1,9]}`, "out of range"},
		{"cores below one", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":[0]}`, "out of range"},
		{"duplicate cores", `{"machine":"IntelUMA8","program":"CG","class":"W","cores":[2,3,2]}`, "duplicate cores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postCurve(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", w.Code)
			}
			var e api.Error
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("non-JSON error body %q", w.Body.String())
			}
			if !strings.Contains(e.Error, tc.wantIn) {
				t.Errorf("error %q, want substring %q", e.Error, tc.wantIn)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, api.PathCurve, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", w.Code)
	}
}

// TestCurveWholeRequestShed: every point needs simulation and no token
// is available — the whole curve is one 429, same as a shed predict.
func TestCurveWholeRequestShed(t *testing.T) {
	stub := &stubPredictor{declineSet: map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true}}
	s := newStubServer(stub, 1)
	ok, _ := s.adm.Acquire("hog")
	if !ok {
		t.Fatal("setup: could not occupy the queue")
	}
	defer s.adm.Release("hog")

	w := postCurve(t, s.Handler(), `{"machine":"IntelUMA8","program":"CG","class":"W"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := w.Header().Get(api.HeaderAdmissionScope); got != api.ScopeGlobal {
		t.Errorf("scope header %q, want %q", got, api.ScopeGlobal)
	}
}

// TestCurvePartialShed: one token for four simulation points — the
// curve still answers 200, carrying the analytical points, one
// simulated point and per-point shed errors for the rest.
func TestCurvePartialShed(t *testing.T) {
	stub := &stubPredictor{declineSet: map[int]bool{2: true, 4: true, 6: true, 8: true}}
	s := newStubServer(stub, 1)
	w := postCurve(t, s.Handler(), `{"machine":"IntelUMA8","program":"CG","class":"W"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeCurve(t, w)
	sum := resp.Summary
	if sum.Analytical != 4 || sum.Simulation != 1 || sum.Shed != 3 || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want 4 analytical / 1 simulated / 3 shed", sum)
	}
	var shedErrs int
	for _, pt := range resp.Points {
		if strings.HasPrefix(pt.Error, "shed (") {
			shedErrs++
		}
	}
	if shedErrs != 3 {
		t.Errorf("shed point errors = %d, want 3", shedErrs)
	}
	if s.adm.Depth() != 0 {
		t.Errorf("admission depth = %d after curve, want 0", s.adm.Depth())
	}
}

// TestCurveCanceled: a batched client that vanished before its
// simulation points settled gets the 499.
func TestCurveCanceled(t *testing.T) {
	stub := &stubPredictor{declineSet: map[int]bool{1: true, 2: true}}
	s := newStubServer(stub, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, api.PathCurve,
		strings.NewReader(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":[1,2]}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status %d: %s, want %d", w.Code, w.Body.String(), StatusClientClosedRequest)
	}
	if s.adm.Depth() != 0 {
		t.Errorf("admission depth = %d after cancel, want 0", s.adm.Depth())
	}
}

// TestCurveFailedPoint: a simulation failure that is not a cancellation
// stays a per-point error; the rest of the curve answers.
func TestCurveFailedPoint(t *testing.T) {
	stub := &stubPredictor{
		declineSet: map[int]bool{2: true, 3: true},
		simErr: func(cores int) error {
			if cores == 3 {
				return fmt.Errorf("injected failure")
			}
			return nil
		},
	}
	s := newStubServer(stub, 4)
	w := postCurve(t, s.Handler(), `{"machine":"IntelUMA8","program":"CG","class":"W","cores":[1,2,3]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeCurve(t, w)
	if resp.Summary.Failed != 1 || resp.Summary.Simulation != 1 || resp.Summary.Analytical != 1 {
		t.Fatalf("summary = %+v, want 1 analytical / 1 simulated / 1 failed", resp.Summary)
	}
	if got := resp.Points[2].Error; got != "injected failure" {
		t.Errorf("failed point error = %q", got)
	}
}

// TestCurveEquivalenceAnalytical pins the wire contract: a warmed
// curve's points carry exactly the numbers N individual predicts would,
// point for point.
func TestCurveEquivalenceAnalytical(t *testing.T) {
	if testing.Short() {
		t.Skip("warms by simulation")
	}
	s, p := newTestServer(t, 0.05, 0)
	spec, _ := machine.ByName("IntelUMA8")
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	w := postCurve(t, h, `{"machine":"IntelUMA8","program":"CG","class":"W"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("curve status %d: %s", w.Code, w.Body.String())
	}
	curve := decodeCurve(t, w)
	if curve.Summary.Analytical != spec.TotalCores() {
		t.Fatalf("summary = %+v, want all %d points analytical", curve.Summary, spec.TotalCores())
	}
	if curve.Summary.Fit == nil {
		t.Error("analytical curve summary without fit")
	}
	for _, pt := range curve.Points {
		pw := postPredict(t, h, fmt.Sprintf(`{"machine":"IntelUMA8","program":"CG","class":"W","cores":%d}`, pt.Cores))
		if pw.Code != http.StatusOK {
			t.Fatalf("predict cores=%d status %d: %s", pt.Cores, pw.Code, pw.Body.String())
		}
		single := decodePredict(t, pw)
		want := api.CurvePoint{
			Cores:          single.Cores,
			Omega:          single.Omega,
			Cycles:         single.Cycles,
			BaselineCycles: single.BaselineCycles,
			MakespanCycles: single.MakespanCycles,
			MCUtilization:  single.MCUtilization,
			Tier:           single.Tier,
			ConfigHash:     single.ConfigHash,
		}
		got, wantJSON := mustJSON(t, pt), mustJSON(t, want)
		if got != wantJSON {
			t.Errorf("cores %d: curve point %s != single predict %s", pt.Cores, got, wantJSON)
		}
	}
}

// TestCurveEquivalenceSimulation is the same contract for the
// simulation tier: with the confidence gate pinned shut (MinR2 = 2 is
// unsatisfiable) every point simulates, and the curve's numbers match N
// individual predicts, which replay from the run cache.
func TestCurveEquivalenceSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	p := model.New(r)
	p.MinR2 = 2
	s := New(Config{Predictor: p, Metrics: telemetry.NewRegistry()})
	h := s.Handler()

	w := postCurve(t, h, `{"machine":"IntelUMA8","program":"EP","class":"W","cores":[1,2,3]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("curve status %d: %s", w.Code, w.Body.String())
	}
	curve := decodeCurve(t, w)
	if curve.Summary.Simulation != 3 {
		t.Fatalf("summary = %+v, want all 3 points simulated", curve.Summary)
	}
	for _, pt := range curve.Points {
		pw := postPredict(t, h, fmt.Sprintf(`{"machine":"IntelUMA8","program":"EP","class":"W","cores":%d}`, pt.Cores))
		if pw.Code != http.StatusOK {
			t.Fatalf("predict cores=%d status %d: %s", pt.Cores, pw.Code, pw.Body.String())
		}
		single := decodePredict(t, pw)
		if single.Tier != api.TierSimulation {
			t.Fatalf("cores %d predict tier = %q, want simulation", pt.Cores, single.Tier)
		}
		if pt.Omega != single.Omega || pt.Cycles != single.Cycles ||
			pt.MakespanCycles != single.MakespanCycles || pt.ConfigHash != single.ConfigHash {
			t.Errorf("cores %d: curve %+v != predict %+v", pt.Cores, pt, single)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
