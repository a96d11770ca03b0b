package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// The curve endpoint answers a whole ω(n) sweep in one request, through
// the same query stages as a predict (server.go).
//
// The analytical sweep is evaluated first — one fit lookup, microseconds
// for the whole curve — and admission is charged one token per
// simulation-tier point before any response byte is written, so a curve
// that needs nothing the instance can give gets its 429 as cheaply as a
// single predict would. In streaming mode (Accept:
// application/x-ndjson) the analytical points go out together, in one
// flush before any simulation starts, and the simulation points stream
// in completion order; batched mode gathers everything and responds in
// request order. Either way each simulation point releases its token the
// moment it settles.

// parseCurve parses a curve request. An empty or omitted cores list
// means the full sweep 1..TotalCores; an explicit list must be in range
// and duplicate-free (a duplicate would silently double-charge
// admission).
func (s *Server) parseCurve(r *http.Request) (query, *httpError) {
	var req api.CurveRequest
	if herr := decodeBody(r, &req); herr != nil {
		return query{}, herr
	}
	q, herr := s.newQuery(r, req.Machine, req.Program, req.Class, req.Scale)
	if herr != nil {
		return q, herr
	}
	if len(req.Cores) == 0 {
		q.cores = make([]int, q.spec.TotalCores())
		for i := range q.cores {
			q.cores[i] = i + 1
		}
		return q, nil
	}
	seen := make(map[int]bool, len(req.Cores))
	for _, n := range req.Cores {
		if herr := checkCores(q.spec, n); herr != nil {
			return q, herr
		}
		if seen[n] {
			return q, &httpError{http.StatusBadRequest, fmt.Sprintf(
				"duplicate cores %d in curve request", n)}
		}
		seen[n] = true
	}
	q.cores = req.Cores
	return q, nil
}

// shedText is one shed point's error text, kept per (reason, scope) for
// the points of one curve.
type shedText struct {
	reason experiments.DeclineReason
	scope  string
	text   string
}

// shedPointText returns the error text of a point shed for reason in
// scope, building it only the first time texts lacks that pair. A curve's
// shed points mostly share one pair, so a long curve formats its text
// once rather than once per point.
func (s *Server) shedPointText(texts []shedText, reason experiments.DeclineReason, scope string) ([]shedText, string) {
	for _, t := range texts {
		if t.reason == reason && t.scope == scope {
			return texts, t.text
		}
	}
	text := fmt.Sprintf("shed (%s): %s", scope, s.shedMessage(reason, scope))
	return append(texts, shedText{reason, scope, text}), text
}

// wantsNDJSON reports whether the client asked for the streaming curve
// mode.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), api.ContentTypeNDJSON)
}

// curvePoint converts one model answer to its wire form. The numeric
// fields mirror api.PredictResponse exactly (the equivalence test pins
// them); the fit summary is hoisted into the curve summary instead of
// repeating per point.
func curvePoint(pred model.Prediction) api.CurvePoint {
	return api.CurvePoint{
		Cores:          pred.Cores,
		Omega:          pred.Omega,
		Cycles:         pred.Cycles,
		BaselineCycles: pred.BaselineCycles,
		MakespanCycles: pred.MakespanCycles,
		MCUtilization:  pred.MCUtilization,
		Tier:           string(pred.Tier),
		ConfigHash:     pred.ConfigHash,
	}
}

func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rt := s.startTrace(w, r, true)
	rt.beginParse()
	q, herr := s.parseCurve(r)
	rt.endParse(herr == nil)
	if herr != nil {
		s.fail(w, herr.status, herr.msg)
		rt.finishCurve(herr.status, 0, 0, 0, 0)
		return
	}
	s.curveRequests.Inc()
	start := time.Now()

	rt.beginModel()
	preds, reasons := s.pred.AnalyticalCurve(q.spec, q.program, q.class, q.cores)
	analytical := 0
	for _, reason := range reasons {
		if reason == "" {
			analytical++
		}
	}
	rt.endModelCurve(analytical, len(q.cores)-analytical)

	rt.beginAdmit()
	scopes, granted := s.admit(q.tenant, reasons)
	shed := len(q.cores) - analytical - granted
	rt.endAdmitCurve(q.tenant, granted, shed)
	if shed > 0 {
		s.metrics.Counter("simserved_curve_shed_points_total").Add(uint64(shed))
	}
	if analytical == 0 && granted == 0 {
		s.reject(w, &q, reasons[0], scopes[0], "points", len(q.cores))
		rt.finishCurve(http.StatusTooManyRequests, 0, 0, shed, 0)
		return
	}

	// Resolve the analytical and shed points now; simulation slots fill
	// as the runner completes them.
	points := make([]*api.CurvePoint, len(q.cores))
	var fit *api.Fit
	var shedTexts []shedText
	for i := range q.cores {
		switch {
		case reasons[i] == "":
			pt := curvePoint(preds[i])
			points[i] = &pt
			if fit == nil {
				fit = fitBody(preds[i].Fit)
			}
			rt.endPoint(rt.startPoint(), pt.Cores, pt.Tier)
			s.curveAnalyticalPoints.Inc()
		case scopes[i] != "":
			var text string
			shedTexts, text = s.shedPointText(shedTexts, reasons[i], scopes[i])
			points[i] = &api.CurvePoint{Cores: q.cores[i], Error: text}
			rt.failPoint(rt.startPoint(), q.cores[i], "shed")
		}
	}

	streaming := wantsNDJSON(r)
	var enc *json.Encoder
	var flusher http.Flusher
	emit := func(pt *api.CurvePoint) {}
	if streaming {
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ = w.(http.Flusher)
		emit = func(pt *api.CurvePoint) {
			_ = enc.Encode(api.CurveFrame{Point: pt})
			if flusher != nil {
				flusher.Flush()
			}
		}
		// Everything already known — the analytical sweep and the shed
		// verdicts — is encoded now and flushed once, before the first
		// simulation is dispatched: the cheap points never wait on the
		// expensive ones. A curve with nothing to simulate leaves the
		// flush to its summary.
		for _, pt := range points {
			if pt != nil {
				_ = enc.Encode(api.CurveFrame{Point: pt})
			}
		}
		if granted > 0 && flusher != nil {
			flusher.Flush()
		}
	}

	if granted > 0 {
		// Point spans open at dispatch and close as each point settles.
		cores, spans := q.cores, make([]telemetry.Span, len(q.cores))
		for i, pt := range points {
			if pt == nil {
				spans[i] = rt.startPoint()
			}
		}
		s.simulate(rt.context(r.Context()), &q, reasons, scopes, func(i int, pred model.Prediction, err error) {
			if err != nil {
				s.metrics.Counter("simserved_curve_failed_points_total").Inc()
				msg := err.Error()
				if isCanceled(err) {
					msg = "canceled before the simulation finished"
				}
				rt.failPoint(spans[i], cores[i], msg)
				points[i] = &api.CurvePoint{Cores: cores[i], Error: msg}
			} else {
				s.metrics.Counter("simserved_curve_simulation_points_total").Inc()
				rt.endPoint(spans[i], pred.Cores, string(pred.Tier))
				pt := curvePoint(pred)
				points[i] = &pt
			}
			emit(points[i])
		})
	}
	// Count the settled simulation points here rather than in the
	// callback, so an all-analytical curve moves no counter to the heap.
	simulation, failed := 0, 0
	for i, pt := range points {
		switch {
		case reasons[i] == "" || scopes[i] != "": // analytical or shed
		case pt.Error != "":
			failed++
		default:
			simulation++
		}
	}

	summary := api.CurveSummary{
		Points:     len(q.cores),
		Analytical: analytical,
		Simulation: simulation,
		Shed:       shed,
		Failed:     failed,
		Fit:        fit,
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	s.curveMs.ObserveExemplar(ms, rt.traceID())
	if s.tracer.Enabled() {
		s.tracer.Emit("server.curve_served",
			"machine", q.spec.Name, "program", q.program, "class", string(q.class),
			"points", len(q.cores), "analytical", analytical, "simulation", simulation,
			"shed", shed, "failed", failed, "elapsed_ms", ms)
	}

	if streaming {
		_ = enc.Encode(api.CurveFrame{Summary: &summary})
		if flusher != nil {
			flusher.Flush()
		}
		rt.finishCurve(http.StatusOK, analytical, simulation, shed, failed)
		return
	}

	// Batched mode: a client that vanished mid-curve gets the predict
	// handler's 499; an intact client gets every point in request order.
	if r.Context().Err() != nil && failed > 0 {
		s.metrics.Counter("simserved_canceled_total").Inc()
		s.fail(w, StatusClientClosedRequest, "request canceled before the curve finished")
		rt.finishCurve(StatusClientClosedRequest, analytical, simulation, shed, failed)
		return
	}
	resp := api.CurveResponse{
		Machine: q.spec.Name,
		Program: q.program,
		Class:   string(q.class),
		Scale:   s.pred.Scale(),
		Points:  make([]api.CurvePoint, len(points)),
		Summary: summary,
	}
	for i, pt := range points {
		resp.Points[i] = *pt
	}
	s.writeJSON(w, http.StatusOK, resp)
	rt.finishCurve(http.StatusOK, analytical, simulation, shed, failed)
}
