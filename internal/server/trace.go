package server

import (
	"context"
	"net/http"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// requestTrace carries one request's span tree through the handlers
// (predict and curve). A nil *requestTrace (tracing off) makes every
// method a no-op, keeping the fast path free of span work: the typed
// begin/end methods below take no variadic arguments, so a disabled
// handler allocates no span objects and no boxed attribute slices (the
// zero-cost-when-off contract; TestPredictTracingOffAllocations pins it).
//
// The handler phases are strictly sequential, so one child slot
// suffices: each begin* opens the next phase span and the matching end*
// closes it. Curve per-point spans overlap (simulation points complete
// concurrently with dispatch), so they bypass the slot — startPoint
// hands the span to the caller.
type requestTrace struct {
	tracer *telemetry.Tracer
	root   telemetry.Span
	child  telemetry.Span
}

// startTrace opens the request's root span — "server.curve" for a
// curve, "server.request" otherwise, so traceview can tell a one-point
// request from a whole-curve request — joined to the client's
// traceparent when present, and echoes the trace ID in the response
// headers. It returns nil when tracing is off.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, curve bool) *requestTrace {
	if !s.tracer.Enabled() {
		return nil
	}
	parent, _ := telemetry.ParseTraceparent(r.Header.Get(api.HeaderTraceparent))
	rt := &requestTrace{tracer: s.tracer}
	if curve {
		rt.root = s.tracer.StartSpan(parent, "server.curve")
	} else {
		rt.root = s.tracer.StartSpan(parent, "server.request")
	}
	w.Header().Set(api.HeaderTrace, rt.root.Context().Trace.String())
	return rt
}

// context returns ctx carrying the root span, so the runner and the sim
// cancellation checkpoints can parent their spans under this request.
func (rt *requestTrace) context(ctx context.Context) context.Context {
	if rt == nil {
		return ctx
	}
	return telemetry.ContextWithSpan(ctx, rt.root.Context())
}

// traceID returns the request's trace ID in hex, or "" when tracing is
// off — the exemplar key for the latency histograms.
func (rt *requestTrace) traceID() string {
	if rt == nil {
		return ""
	}
	return rt.root.Context().Trace.String()
}

// beginParse opens the decode+validate phase span.
func (rt *requestTrace) beginParse() {
	if rt == nil {
		return
	}
	rt.child = rt.tracer.StartSpan(rt.root.Context(), "server.parse")
}

// endParse closes the parse span with the validation outcome.
func (rt *requestTrace) endParse(ok bool) {
	if rt == nil {
		return
	}
	rt.child.End("ok", ok)
}

// beginModel opens the tier-decision span (the analytical attempt).
func (rt *requestTrace) beginModel() {
	if rt == nil {
		return
	}
	rt.child = rt.tracer.StartSpan(rt.root.Context(), "server.model")
}

// endModel closes the model span; decline is empty when the fast path
// answered, else the decline reason that routed us to simulation.
func (rt *requestTrace) endModel(decline string) {
	if rt == nil {
		return
	}
	if decline == "" {
		rt.child.End("decision", "answered")
		return
	}
	rt.child.End("decision", "declined", "decline", decline)
}

// beginAdmit opens the admission-wait span. The admitter never blocks —
// the span times the decision itself and records which bucket (global or
// per-tenant) the verdict came from, completing the paper-style
// queue-vs-service decomposition per request.
func (rt *requestTrace) beginAdmit() {
	if rt == nil {
		return
	}
	rt.child = rt.tracer.StartSpan(rt.root.Context(), "server.admit")
}

// endAdmit closes the admission span with the verdict and the deciding
// scope (ScopeGlobal or ScopeTenant).
func (rt *requestTrace) endAdmit(tenant string, ok bool, scope string) {
	if rt == nil {
		return
	}
	rt.child.End("ok", ok, "tenant", tenant, "scope", scope)
}

// beginSim opens the simulation-fallback span; the runner's
// queue_wait/execute spans nest under the request root via context.
func (rt *requestTrace) beginSim() {
	if rt == nil {
		return
	}
	rt.child = rt.tracer.StartSpan(rt.root.Context(), "server.sim")
}

// endSim closes the simulation span, recording the error if any.
func (rt *requestTrace) endSim(err error) {
	if rt == nil {
		return
	}
	if err == nil {
		rt.child.End()
		return
	}
	rt.child.End("error", err.Error())
}

// beginRespond opens the response-marshal span.
func (rt *requestTrace) beginRespond() {
	if rt == nil {
		return
	}
	rt.child = rt.tracer.StartSpan(rt.root.Context(), "server.respond")
}

// endRespond closes the response span.
func (rt *requestTrace) endRespond() {
	if rt == nil {
		return
	}
	rt.child.End()
}

// finish closes the root span with the final status and answering tier
// ("" when the request failed before a tier answered). Every handler exit
// path calls it exactly once.
func (rt *requestTrace) finish(status int, tier string) {
	if rt == nil {
		return
	}
	if tier == "" {
		rt.root.End("status", status)
		return
	}
	rt.root.End("status", status, "tier", tier)
}

// endModelCurve closes the model span of a curve request with the sweep
// verdict: how many points the fit answered and how many it declined to
// the simulation tier.
func (rt *requestTrace) endModelCurve(answered, declined int) {
	if rt == nil {
		return
	}
	rt.child.End("answered", answered, "declined", declined)
}

// endAdmitCurve closes the admission span of a curve request: how many
// simulation points were granted tokens and how many were shed.
func (rt *requestTrace) endAdmitCurve(tenant string, granted, shed int) {
	if rt == nil {
		return
	}
	rt.child.End("tenant", tenant, "granted", granted, "shed", shed)
}

// startPoint opens one per-point child span under the curve root and
// hands it to the caller (zero Span when tracing is off — End on it is
// a no-op). Points overlap in time, so they cannot use the sequential
// child slot.
func (rt *requestTrace) startPoint() telemetry.Span {
	if rt == nil {
		return telemetry.Span{}
	}
	return rt.tracer.StartSpan(rt.root.Context(), "server.point")
}

// endPoint closes a point span with the point's core count and the tier
// that answered it. Like every method here it returns before building
// the attributes when tracing is off, so a traced-off curve boxes nothing
// per point.
func (rt *requestTrace) endPoint(sp telemetry.Span, cores int, tier string) {
	if rt == nil {
		return
	}
	sp.End("cores", cores, "tier", tier)
}

// failPoint closes a point span with the point's core count and why it
// was not answered.
func (rt *requestTrace) failPoint(sp telemetry.Span, cores int, msg string) {
	if rt == nil {
		return
	}
	sp.End("cores", cores, "error", msg)
}

// finishCurve closes the curve root span with the final status and the
// per-tier point counts.
func (rt *requestTrace) finishCurve(status, analytical, simulation, shed, failed int) {
	if rt == nil {
		return
	}
	rt.root.End("status", status, "analytical", analytical,
		"simulation", simulation, "shed", shed, "failed", failed)
}
