package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// DefaultMaxQueue bounds simulation-tier admission when Config.MaxQueue
// is zero: enough to keep a worker pool busy with headroom, small enough
// that shed load gets a 429 in microseconds instead of a timeout in
// minutes.
const DefaultMaxQueue = 64

// StatusClientClosedRequest is reported when the client vanished before
// its simulation finished (nginx's 499 convention; Go has no name for it).
const StatusClientClosedRequest = 499

// Retry-After bounds: the hint is derived from a latency estimate, never
// below one second and never an hour-long lie.
const (
	minRetryAfterS = 1
	maxRetryAfterS = 60
)

// Predictor is the narrow surface the serving layer needs from the
// tiered backend. *model.Predictor implements it; tests substitute
// stubs to pin serving contracts — like mixed-tier streaming order —
// that the real physics only produces past a fitted saturation point.
type Predictor interface {
	// Scale is the workload fidelity of this instance; every answer and
	// config hash is at this scale.
	Scale() float64
	// FitCount and CachedRuns feed /healthz occupancy.
	FitCount() int
	CachedRuns() int
	// Analytical answers from the fitted closed form or declines with a
	// reason; it must never block.
	Analytical(spec machine.Spec, program string, class workload.Class, cores int) (model.Prediction, experiments.DeclineReason)
	// AnalyticalCurve is Analytical over a core sweep with one fit
	// lookup: point i of the parallel slices is answered iff reasons[i]
	// is empty.
	AnalyticalCurve(spec machine.Spec, program string, class workload.Class, cores []int) ([]model.Prediction, []experiments.DeclineReason)
	// Predict answers one query, falling back to simulation.
	Predict(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores int) (model.Prediction, error)
	// PredictStream simulates many core counts of one pair, invoking fn
	// exactly once per index in completion order from a single
	// goroutine; failed or canceled points carry the error.
	PredictStream(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores []int, fn func(i int, pred model.Prediction, err error))
}

// Config wires a Server. Predictor is required; everything else has
// serviceable defaults.
type Config struct {
	// Predictor is the tiered backend answering queries (normally a
	// *model.Predictor).
	Predictor Predictor
	// MaxQueue bounds simulation-tier admission (queued + running)
	// instance-wide. Zero means DefaultMaxQueue.
	MaxQueue int
	// MaxPerTenant bounds the admission tokens any one tenant
	// (api.HeaderTenant) may hold at once. Zero means half of MaxQueue
	// (rounded up), so no single tenant can starve the simulation tier;
	// values are clamped into [1, MaxQueue].
	MaxPerTenant int
	// Metrics receives request/queue/tier metrics and is served at
	// /metrics. Nil creates a private registry (still served).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives one server.request event per
	// answered query plus server.rejected / server.error events, and a
	// span.end record for every request-phase span (server.request or
	// server.curve root, server.parse/model/admit/sim/respond/point
	// children; see docs/TRACING.md). Requests echo their trace ID in
	// the X-Simserved-Trace header and join a client trace sent via the
	// W3C traceparent header.
	Tracer *telemetry.Tracer
}

// Server is the HTTP serving layer. Build with New, mount Handler.
type Server struct {
	pred    Predictor
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	// adm is the simulation tier's two-level (global + per-tenant) token
	// bucket: a request holds its tokens from admission decision to
	// response write — one token per simulation point for curves.
	adm *admitter

	// latMu guards simLatencyS, an EWMA of simulation-tier response time
	// in seconds that prices the Retry-After hint on 429s. Seeded at 1s
	// so a cold server neither promises instant retry nor stalls clients.
	latMu       sync.Mutex
	simLatencyS float64

	// Hot-path metric handles, resolved once by New so an answered
	// analytical request takes no registry lock by name. The names are
	// the ones /metrics exports.
	requests, analytical, curveRequests, curveAnalyticalPoints *telemetry.Counter
	analyticalMs, predictMs, curveMs                           *telemetry.Histogram
}

// New returns a Server over the given backend.
func New(cfg Config) *Server {
	if cfg.Predictor == nil {
		panic("server: Config.Predictor is required")
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	perTenant := cfg.MaxPerTenant
	if perTenant <= 0 {
		perTenant = (maxQueue + 1) / 2
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Server{
		pred:                  cfg.Predictor,
		metrics:               reg,
		tracer:                cfg.Tracer,
		adm:                   newAdmitter(maxQueue, perTenant),
		simLatencyS:           1,
		requests:              reg.Counter("simserved_requests_total"),
		analytical:            reg.Counter("simserved_analytical_total"),
		curveRequests:         reg.Counter("simserved_curve_requests_total"),
		curveAnalyticalPoints: reg.Counter("simserved_curve_analytical_points_total"),
		analyticalMs:          reg.Histogram("simserved_analytical_ms", analyticalBounds...),
		predictMs:             reg.Histogram("simserved_predict_ms", predictBounds...),
		curveMs:               reg.Histogram("simserved_curve_ms", predictBounds...),
	}
}

// Handler returns the server's routing table on a private mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathPredict, s.handlePredict)
	mux.HandleFunc(api.PathCurve, s.handleCurve)
	mux.HandleFunc(api.PathCatalog, s.handleCatalog)
	mux.HandleFunc(api.PathHealthz, s.handleHealthz)
	mux.HandleFunc(api.PathMetrics, s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxBodyBytes bounds request bodies; the largest schema is a few
// scalars and a core list, so anything past a few KB is a client bug.
const maxBodyBytes = 1 << 20

// predictParams is one parsed and validated predict request.
type predictParams struct {
	spec   machine.Spec
	req    api.PredictRequest
	class  workload.Class
	cores  int
	tenant string
}

// httpError is a failure that maps to one HTTP status.
type httpError struct {
	status int
	msg    string
}

// parsePredict decodes and validates a predict request body. It performs
// no I/O beyond reading the body and writes nothing, so the handler can
// bracket it in a span and route the error itself.
func (s *Server) parsePredict(r *http.Request) (predictParams, *httpError) {
	var p predictParams
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
	p.cores = p.req.Cores
	if p.cores == 0 {
		p.cores = spec.TotalCores()
	}
	if p.cores < 1 || p.cores > spec.TotalCores() {
		return p, &httpError{http.StatusBadRequest, fmt.Sprintf(
			"cores %d out of range for %s (1..%d)", p.cores, spec.Name, spec.TotalCores())}
	}
	p.class = workload.Class(p.req.Class)
	p.tenant = r.Header.Get(api.HeaderTenant)
	return p, nil
}

// checkScale rejects a request naming a different fidelity than this
// instance simulates at (zero means "whatever the server runs").
func (s *Server) checkScale(scale float64) *httpError {
	if scale != 0 && scale != s.pred.Scale() {
		return &httpError{http.StatusBadRequest, fmt.Sprintf(
			"this instance simulates at scale %g, not %g; run one simserved per fidelity (see docs/SERVER.md)",
			s.pred.Scale(), scale)}
	}
	return nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rt := s.startTrace(w, r)
	rt.beginParse()
	p, herr := s.parsePredict(r)
	rt.endParse(herr == nil)
	if herr != nil {
		s.fail(w, herr.status, herr.msg)
		rt.finish(herr.status, "")
		return
	}
	s.requests.Inc()

	// Fast path first: microseconds, no admission, no queueing.
	start := time.Now()
	rt.beginModel()
	pred, reason := s.pred.Analytical(p.spec, p.req.Program, p.class, p.cores)
	rt.endModel(string(reason))
	if reason == "" {
		rt.beginRespond()
		s.respond(w, rt, pred, time.Since(start))
		rt.endRespond()
		rt.finish(http.StatusOK, string(pred.Tier))
		return
	}

	rt.beginAdmit()
	ok, scope := s.adm.Acquire(p.tenant)
	rt.endAdmit(p.tenant, ok, scope)
	if !ok {
		s.shed(w, p, reason, scope)
		rt.finish(http.StatusTooManyRequests, "")
		return
	}
	s.metrics.Gauge("simserved_queue_depth").Set(float64(s.adm.Depth()))
	defer s.release(p.tenant)

	rt.beginSim()
	pred, err := s.pred.Predict(rt.context(r.Context()), p.spec, p.req.Program, p.class, p.cores)
	rt.endSim(err)
	switch {
	case err == nil:
		rt.beginRespond()
		s.respond(w, rt, pred, time.Since(start))
		rt.endRespond()
		rt.finish(http.StatusOK, string(pred.Tier))
	case isCanceled(err):
		s.metrics.Counter("simserved_canceled_total").Inc()
		s.fail(w, StatusClientClosedRequest, "request canceled before the simulation finished")
		rt.finish(StatusClientClosedRequest, "")
	case errors.Is(err, model.ErrBadCores):
		s.fail(w, http.StatusBadRequest, err.Error())
		rt.finish(http.StatusBadRequest, "")
	default:
		s.metrics.Counter("simserved_errors_total").Inc()
		if s.tracer.Enabled() {
			s.tracer.Emit("server.error", "machine", p.spec.Name, "program", p.req.Program,
				"class", p.req.Class, "cores", p.cores, "error", err.Error())
		}
		s.fail(w, http.StatusInternalServerError, err.Error())
		rt.finish(http.StatusInternalServerError, "")
	}
}

// isCanceled reports whether a predict error means the client vanished
// (or its deadline passed) before the simulation finished.
func isCanceled(err error) bool {
	return errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// shed writes the 429 for a request that failed admission: Retry-After
// priced off the simulation-latency EWMA, the rejecting scope, and a
// message naming the full bucket. reason is the analytical tier's decline
// that routed the request here.
func (s *Server) shed(w http.ResponseWriter, p predictParams, reason experiments.DeclineReason, scope string) {
	s.metrics.Counter("simserved_rejected_total").Inc()
	if scope == api.ScopeTenant {
		s.metrics.Counter("simserved_tenant_rejected_total").Inc()
	}
	if s.tracer.Enabled() {
		s.tracer.Emit("server.rejected", "machine", p.spec.Name, "program", p.req.Program,
			"class", p.req.Class, "cores", p.cores, "decline", string(reason),
			"tenant", p.tenant, "scope", scope, "queue", s.adm.Cap())
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterS()))
	w.Header().Set(api.HeaderAdmissionScope, scope)
	s.fail(w, http.StatusTooManyRequests, s.shedMessage(reason, scope))
}

// shedMessage names the bucket that rejected a simulation and the
// decline that routed the work there.
func (s *Server) shedMessage(reason experiments.DeclineReason, scope string) string {
	if scope == api.ScopeTenant {
		return fmt.Sprintf(
			"tenant admission bucket full (cap %d simulations per tenant); the analytical tier declined (%s) — retry after the hint or warm this pair",
			s.adm.TenantCap(), reason)
	}
	return fmt.Sprintf(
		"simulation admission queue full (%d in flight); the analytical tier declined (%s) — retry after the hint or warm this pair",
		s.adm.Cap(), reason)
}

// release returns the tenant's admission token.
func (s *Server) release(tenant string) {
	s.adm.Release(tenant)
	s.metrics.Gauge("simserved_queue_depth").Set(float64(s.adm.Depth()))
}

// retryAfterS prices the Retry-After hint from the simulation-latency
// EWMA: roughly one service time, clamped into
// [minRetryAfterS, maxRetryAfterS] so the hint is always a positive
// integer bounded by a minute.
func (s *Server) retryAfterS() int {
	s.latMu.Lock()
	est := s.simLatencyS
	s.latMu.Unlock()
	v := int(math.Ceil(est))
	if v < minRetryAfterS {
		v = minRetryAfterS
	}
	if v > maxRetryAfterS {
		v = maxRetryAfterS
	}
	return v
}

// observeSimLatency folds one simulation-tier response time into the
// Retry-After estimate (EWMA, 20% new sample).
func (s *Server) observeSimLatency(elapsed time.Duration) {
	s.latMu.Lock()
	s.simLatencyS = 0.8*s.simLatencyS + 0.2*elapsed.Seconds()
	s.latMu.Unlock()
}

// Latency histogram bucket bounds (milliseconds), shared by respond (which
// feeds them) and handleHealthz (which reads quantiles off them).
var (
	analyticalBounds = []float64{0.01, 0.1, 1, 10, 100}
	simulateBounds   = []float64{10, 100, 1000, 10000, 100000}
	predictBounds    = []float64{0.01, 0.1, 1, 10, 100, 1000, 10000, 100000}
)

// respond writes one successful prediction with the tier headers and
// records the per-tier latency metrics and the request trace event. The
// request's trace ID (empty when tracing is off) becomes the exemplar on
// each latency histogram bucket, so a /metrics scrape names the slowest
// request per bucket.
func (s *Server) respond(w http.ResponseWriter, rt *requestTrace, pred model.Prediction, elapsed time.Duration) {
	ms := float64(elapsed.Microseconds()) / 1000
	trace := rt.traceID()
	switch pred.Tier {
	case model.TierAnalytical:
		s.analytical.Inc()
		s.analyticalMs.ObserveExemplar(ms, trace)
	case model.TierSimulation:
		s.metrics.Counter("simserved_simulation_total").Inc()
		s.metrics.Histogram("simserved_simulate_ms", simulateBounds...).ObserveExemplar(ms, trace)
		s.observeSimLatency(elapsed)
	}
	s.predictMs.ObserveExemplar(ms, trace)
	if s.tracer.Enabled() {
		s.tracer.Emit("server.request",
			"machine", pred.Machine, "program", pred.Program, "class", string(pred.Class),
			"cores", pred.Cores, "tier", string(pred.Tier), "omega", pred.Omega,
			"elapsed_ms", ms)
	}
	resp := api.PredictResponse{
		Machine:        pred.Machine,
		Program:        pred.Program,
		Class:          string(pred.Class),
		Cores:          pred.Cores,
		Scale:          pred.Scale,
		Omega:          pred.Omega,
		Cycles:         pred.Cycles,
		BaselineCycles: pred.BaselineCycles,
		MakespanCycles: pred.MakespanCycles,
		MCUtilization:  pred.MCUtilization,
		Tier:           string(pred.Tier),
		ConfigHash:     pred.ConfigHash,
		Fit:            fitBody(pred.Fit),
	}
	w.Header().Set(api.HeaderTier, string(pred.Tier))
	w.Header().Set(api.HeaderConfigHash, pred.ConfigHash)
	s.writeJSON(w, http.StatusOK, resp)
}

// fitBody converts a model fit summary to its wire form (nil for nil).
func fitBody(fi *experiments.Fit) *api.Fit {
	if fi == nil {
		return nil
	}
	return &api.Fit{
		Anchors:         fi.Anchors,
		R2:              fi.R2,
		Residual:        fi.Residual,
		SaturationCores: fi.SaturationCores,
	}
}

// validateWorkload checks program and class against the registry without
// constructing the (potentially large) workload. Every registered program
// has at least one class, so no classes means no such program; the
// sorted catalog is built only for that error message.
func validateWorkload(program, class string) error {
	classes := workload.ClassesFor(program)
	if len(classes) == 0 {
		return fmt.Errorf("unknown program %q (have %v)", program, workload.Names())
	}
	for _, cl := range classes {
		if string(cl) == class {
			return nil
		}
	}
	return fmt.Errorf("program %s has no class %q (have %v)", program, class, classes)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := api.CatalogResponse{Scale: s.pred.Scale()}
	for _, spec := range machine.All() {
		kind := "NUMA"
		if spec.UMA() {
			kind = "UMA"
		}
		resp.Machines = append(resp.Machines, api.CatalogMachine{
			Name:           spec.Name,
			Kind:           kind,
			Sockets:        spec.Sockets,
			CoresPerSocket: spec.CoresPerSocket,
			TotalCores:     spec.TotalCores(),
		})
	}
	for _, name := range workload.Names() {
		classes := workload.ClassesFor(name)
		cp := api.CatalogProgram{Name: name, Description: workload.Describe(name)}
		for _, cl := range classes {
			cp.Classes = append(cp.Classes, string(cl))
		}
		resp.Programs = append(resp.Programs, cp)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.predictMs
	s.writeJSON(w, http.StatusOK, api.HealthzResponse{
		Status:       "ok",
		Scale:        s.pred.Scale(),
		Fits:         s.pred.FitCount(),
		CachedRuns:   s.pred.CachedRuns(),
		QueueDepth:   s.adm.Depth(),
		QueueCap:     s.adm.Cap(),
		TenantCap:    s.adm.TenantCap(),
		Tenants:      s.adm.Tenants(),
		PredictP50Ms: quantileOrZero(h, 0.50),
		PredictP99Ms: quantileOrZero(h, 0.99),
	})
}

// quantileOrZero is Histogram.Quantile with the empty-histogram NaN mapped
// to 0, since NaN is not representable in JSON.
func quantileOrZero(h *telemetry.Histogram, q float64) float64 {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.WritePrometheus(w)
}

// fail writes one JSON error body with the given status.
func (s *Server) fail(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, api.Error{Error: msg})
}

// writeJSON writes any body as JSON with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}
