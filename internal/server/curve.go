package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The curve endpoint answers a whole ω(n) sweep in one request.
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
// moment it settles, so a long curve does not hold the queue hostage
// while its slowest point simulates.

// curveParams is one parsed and validated curve request.
type curveParams struct {
	spec   machine.Spec
	req    api.CurveRequest
	class  workload.Class
	cores  []int
	tenant string
}

// parseCurve decodes and validates a curve request body. An empty or
// omitted cores list means the full sweep 1..TotalCores; an explicit
// list must be in range and duplicate-free (a duplicate would silently
// double-charge admission).
func (s *Server) parseCurve(r *http.Request) (curveParams, *httpError) {
	var p curveParams
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p.req); err != nil {
		return p, &httpError{http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err)}
	}
	spec, err := machine.ByName(p.req.Machine)
	if err != nil {
		return p, &httpError{http.StatusBadRequest, err.Error()}
	}
	p.spec = spec
	if err := validateWorkload(p.req.Program, p.req.Class); err != nil {
		return p, &httpError{http.StatusBadRequest, err.Error()}
	}
	if herr := s.checkScale(p.req.Scale); herr != nil {
		return p, herr
	}
	if len(p.req.Cores) == 0 {
		p.cores = make([]int, spec.TotalCores())
		for i := range p.cores {
			p.cores[i] = i + 1
		}
	} else {
		seen := make(map[int]bool, len(p.req.Cores))
		for _, n := range p.req.Cores {
			if n < 1 || n > spec.TotalCores() {
				return p, &httpError{http.StatusBadRequest, fmt.Sprintf(
					"cores %d out of range for %s (1..%d)", n, spec.Name, spec.TotalCores())}
			}
			if seen[n] {
				return p, &httpError{http.StatusBadRequest, fmt.Sprintf(
					"duplicate cores %d in curve request", n)}
			}
			seen[n] = true
		}
		p.cores = p.req.Cores
	}
	p.class = workload.Class(p.req.Class)
	p.tenant = r.Header.Get(api.HeaderTenant)
	return p, nil
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
	rt := s.startCurveTrace(w, r)
	rt.beginParse()
	p, herr := s.parseCurve(r)
	rt.endParse(herr == nil)
	if herr != nil {
		s.fail(w, herr.status, herr.msg)
		rt.finishCurve(herr.status, 0, 0, 0, 0)
		return
	}
	s.curveRequests.Inc()
	start := time.Now()

	// Analytical sweep: one fit lookup answers every point it can, in
	// microseconds.
	rt.beginModel()
	preds, reasons := s.pred.AnalyticalCurve(p.spec, p.req.Program, p.class, p.cores)
	var simIdx []int
	for i, reason := range reasons {
		if reason != "" {
			simIdx = append(simIdx, i)
		}
	}
	analytical := len(p.cores) - len(simIdx)
	rt.endModelCurve(analytical, len(simIdx))

	// Charge admission one token per simulation point before any byte is
	// written: the whole grant/shed verdict must precede the streaming
	// header, which commits the status code.
	granted := make([]bool, len(p.cores))
	shedScope := make([]string, len(p.cores))
	grantedCount := 0
	rt.beginAdmit()
	for _, i := range simIdx {
		ok, scope := s.adm.Acquire(p.tenant)
		if ok {
			granted[i] = true
			grantedCount++
		} else {
			shedScope[i] = scope
			s.metrics.Counter("simserved_curve_shed_points_total").Inc()
		}
	}
	rt.endAdmitCurve(p.tenant, grantedCount, len(simIdx)-grantedCount)
	if grantedCount > 0 {
		s.metrics.Gauge("simserved_queue_depth").Set(float64(s.adm.Depth()))
	}
	shed := len(simIdx) - grantedCount

	// A curve the instance can say nothing about — no fit, every point
	// needs a simulation, every token denied — is one whole-request 429,
	// same as a shed predict.
	if analytical == 0 && grantedCount == 0 && len(simIdx) > 0 {
		scope := shedScope[simIdx[0]]
		s.metrics.Counter("simserved_rejected_total").Inc()
		if scope == api.ScopeTenant {
			s.metrics.Counter("simserved_tenant_rejected_total").Inc()
		}
		if s.tracer.Enabled() {
			s.tracer.Emit("server.rejected", "machine", p.spec.Name, "program", p.req.Program,
				"class", p.req.Class, "points", len(p.cores), "decline", string(reasons[simIdx[0]]),
				"tenant", p.tenant, "scope", scope, "queue", s.adm.Cap())
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterS()))
		w.Header().Set(api.HeaderAdmissionScope, scope)
		s.fail(w, http.StatusTooManyRequests, s.shedMessage(reasons[simIdx[0]], scope))
		rt.finishCurve(http.StatusTooManyRequests, 0, 0, shed, 0)
		return
	}

	// Resolve the analytical and shed points now; simulation slots fill
	// as the runner completes them.
	points := make([]*api.CurvePoint, len(p.cores))
	var fit *api.Fit
	var shedTexts []shedText
	for i := range p.cores {
		switch {
		case reasons[i] == "":
			pt := curvePoint(preds[i])
			points[i] = &pt
			if fit == nil {
				fit = fitBody(preds[i].Fit)
			}
			rt.endPoint(rt.startPoint(), pt.Cores, pt.Tier)
			s.curveAnalyticalPoints.Inc()
		case !granted[i]:
			var text string
			shedTexts, text = s.shedPointText(shedTexts, reasons[i], shedScope[i])
			points[i] = &api.CurvePoint{Cores: p.cores[i], Error: text}
			rt.failPoint(rt.startPoint(), p.cores[i], "shed")
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
		if grantedCount > 0 && flusher != nil {
			flusher.Flush()
		}
	}

	// Dispatch the granted simulation points through the runner's pool.
	// PredictStream invokes the callback on this goroutine, one point at
	// a time, in completion order.
	simulation, failed := 0, 0
	if grantedCount > 0 {
		simCores := make([]int, 0, grantedCount)
		simMap := make([]int, 0, grantedCount)
		for _, i := range simIdx {
			if granted[i] {
				simCores = append(simCores, p.cores[i])
				simMap = append(simMap, i)
			}
		}
		simSpans := make([]telemetry.Span, len(simCores))
		simStart := make([]time.Time, len(simCores))
		for j := range simCores {
			simSpans[j] = rt.startPoint()
			simStart[j] = time.Now()
		}
		s.pred.PredictStream(rt.context(r.Context()), p.spec, p.req.Program, p.class, simCores,
			func(j int, pred model.Prediction, err error) {
				i := simMap[j]
				s.release(p.tenant)
				if err != nil {
					failed++
					s.metrics.Counter("simserved_curve_failed_points_total").Inc()
					msg := err.Error()
					if isCanceled(err) {
						msg = "canceled before the simulation finished"
					}
					rt.failPoint(simSpans[j], simCores[j], msg)
					points[i] = &api.CurvePoint{Cores: simCores[j], Error: msg}
				} else {
					simulation++
					s.metrics.Counter("simserved_curve_simulation_points_total").Inc()
					s.observeSimLatency(time.Since(simStart[j]))
					rt.endPoint(simSpans[j], pred.Cores, string(pred.Tier))
					pt := curvePoint(pred)
					points[i] = &pt
				}
				emit(points[i])
			})
	}

	summary := api.CurveSummary{
		Points:     len(p.cores),
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
			"machine", p.spec.Name, "program", p.req.Program, "class", p.req.Class,
			"points", len(p.cores), "analytical", analytical, "simulation", simulation,
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
		Machine: p.spec.Name,
		Program: p.req.Program,
		Class:   p.req.Class,
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
