// Package api is the versioned wire protocol of the contention service:
// every request body, response body, streaming frame, header name and
// route path that crosses the HTTP boundary of cmd/simserved lives here,
// and only here. internal/server marshals these types, internal/load and
// cmd/loadgen send them, cmd/traceview and the smoke scripts assert on
// them — none of those packages declares its own copy of the protocol
// (enforced at vet time by the apilint analyzer, internal/analysis).
//
// The schema is v1: the /v1/* paths below are the version. Fields are
// only ever added (always with omitempty so old clients keep decoding);
// renames and removals mean /v2. The wire-compatibility golden test in
// this package (testdata/*.golden.json, re-baselined with -update) pins
// the encoded form byte-for-byte.
//
// docs/API.md is the operator-facing reference for everything here.
package api

// Route paths served by internal/server. The /v1 prefix is the wire
// version of the types in this package.
const (
	// PathPredict answers one contention query (POST, PredictRequest →
	// PredictResponse).
	PathPredict = "/v1/predict"
	// PathCurve answers a whole ω(n) curve in one request (POST,
	// CurveRequest → CurveResponse, or NDJSON CurveFrame stream when the
	// client sends Accept: application/x-ndjson).
	PathCurve = "/v1/curve"
	// PathCatalog lists machines, programs, classes and the instance
	// scale (GET → CatalogResponse).
	PathCatalog = "/v1/catalog"
	// PathHealthz is liveness plus fit/cache/queue occupancy
	// (GET → HealthzResponse).
	PathHealthz = "/healthz"
	// PathMetrics is the Prometheus text exposition (GET).
	PathMetrics = "/metrics"
)

// Wire headers shared between the server, the load harness and the
// smoke scripts.
const (
	// HeaderTier reports which tier answered a prediction:
	// "analytical" or "simulation".
	HeaderTier = "X-Simserved-Tier"
	// HeaderConfigHash reports the content address of the answered
	// query (single-point responses only; curve points carry theirs in
	// the body).
	HeaderConfigHash = "X-Simserved-Config-Hash"
	// HeaderTenant identifies the caller's admission bucket on requests.
	// Absent means the anonymous tenant "".
	HeaderTenant = "X-Simserved-Tenant"
	// HeaderAdmissionScope reports, on a 429, which bucket was full:
	// ScopeTenant or ScopeGlobal.
	HeaderAdmissionScope = "X-Simserved-Admission-Scope"
	// HeaderTrace reports the request's 128-bit trace ID (32 hex
	// digits) back to the client; set on every response — including
	// 4xx/5xx — when tracing is enabled, so any response is joinable to
	// the server's span log.
	HeaderTrace = "X-Simserved-Trace"
	// HeaderTraceparent is the W3C trace-context request header
	// ("00-<trace>-<span>-01"); when a client (cmd/loadgen) sends one,
	// the server's request span joins the client's trace instead of
	// starting a fresh one.
	HeaderTraceparent = "traceparent"
)

// Admission scope names carried in HeaderAdmissionScope on a 429.
const (
	// ScopeTenant means the caller's own per-tenant bucket was full —
	// other tenants were unaffected by the overload.
	ScopeTenant = "tenant"
	// ScopeGlobal means the instance-wide bucket was full.
	ScopeGlobal = "global"
)

// Content types of the two curve response modes.
const (
	// ContentTypeJSON is every batched response body.
	ContentTypeJSON = "application/json"
	// ContentTypeNDJSON is the streaming curve mode: one CurveFrame per
	// line, analytical points first, then simulation points in
	// completion order, then exactly one terminal summary frame.
	ContentTypeNDJSON = "application/x-ndjson"
)

// Tier values carried in HeaderTier and the tier fields below. They
// mirror internal/model's Tier constants; the wire speaks strings.
const (
	// TierAnalytical marks an answer computed from the fitted closed
	// form in microseconds.
	TierAnalytical = "analytical"
	// TierSimulation marks an answer measured by a full simulation run
	// (possibly served from the runner's content-addressed cache).
	TierSimulation = "simulation"
)

// PredictRequest is the POST /v1/predict body. Unknown fields are
// rejected by the server so typos ("core" for "cores") fail loudly
// instead of being silently defaulted.
type PredictRequest struct {
	// Machine is a preset name (GET /v1/catalog lists them).
	Machine string `json:"machine"`
	// Program and Class select the workload.
	Program string `json:"program"`
	Class   string `json:"class"`
	// Cores is the number of active cores n; 0 means the whole machine.
	Cores int `json:"cores"`
	// Scale, when non-zero, must match the server's workload scale —
	// fidelity is an instance property, not a per-request knob (see
	// docs/API.md, "One scale per instance").
	Scale float64 `json:"scale,omitempty"`
}

// PredictResponse is the POST /v1/predict success body.
type PredictResponse struct {
	// Machine, Program, Class, Cores and Scale echo the resolved query
	// (Cores resolved: 0 in the request comes back as the machine's
	// total cores).
	Machine string  `json:"machine"`
	Program string  `json:"program"`
	Class   string  `json:"class"`
	Cores   int     `json:"cores"`
	Scale   float64 `json:"scale"`
	// Omega is ω(n) = (C(n) − C(1)) / C(1), the paper's equation (4).
	Omega float64 `json:"omega"`
	// Cycles is C(n); BaselineCycles is C(1); MakespanCycles is the
	// predicted wall-clock duration in cycles.
	Cycles         float64 `json:"cycles"`
	BaselineCycles float64 `json:"baseline_cycles"`
	MakespanCycles float64 `json:"makespan_cycles"`
	// MCUtilization has one entry per memory controller, in [0,1].
	MCUtilization []float64 `json:"mc_utilization"`
	// Tier is TierAnalytical or TierSimulation.
	Tier string `json:"tier"`
	// ConfigHash is the SHA-256 content address of the canonical run
	// coordinate (machine, program, class, cores, scale).
	ConfigHash string `json:"config_hash"`
	// Fit is the fit summary; analytical tier only.
	Fit *Fit `json:"fit,omitempty"`
}

// Fit summarizes the analytical model behind an analytical-tier answer.
type Fit struct {
	// Anchors are the core counts of the measurement plan the fit used.
	Anchors []int `json:"anchors"`
	// R2 is the goodness-of-fit of the single-socket 1/C(n) regression.
	R2 float64 `json:"r2"`
	// Residual is the fit's maximum relative error over its own anchors.
	Residual float64 `json:"residual"`
	// SaturationCores is the fitted μ/L: the core count at which the
	// modeled memory system saturates. Omitted when the fit never
	// saturates (μ/L is infinite, which JSON cannot carry).
	SaturationCores *float64 `json:"saturation_cores,omitempty"`
}

// Error is every non-2xx response body.
type Error struct {
	Error string `json:"error"`
}

// CurveRequest is the POST /v1/curve body: one (machine, program,
// class) pair, many core counts, one response. Unknown fields are
// rejected.
type CurveRequest struct {
	// Machine is a preset name (GET /v1/catalog lists them).
	Machine string `json:"machine"`
	// Program and Class select the workload.
	Program string `json:"program"`
	Class   string `json:"class"`
	// Cores lists the active-core counts n to answer for, each in
	// 1..TotalCores, no duplicates. Empty or omitted means the full
	// sweep 1..TotalCores.
	Cores []int `json:"cores,omitempty"`
	// Scale, when non-zero, must match the server's workload scale.
	Scale float64 `json:"scale,omitempty"`
}

// CurvePoint is one ω(n) sample of a curve response. The numeric fields
// are byte-identical to what a single PredictRequest for the same
// coordinate would return (the equivalence test in internal/server pins
// this); the per-point fit summary is hoisted into CurveSummary since
// one fit covers the whole curve.
type CurvePoint struct {
	// Cores is the active-core count n of this sample.
	Cores int `json:"cores"`
	// Omega, Cycles, BaselineCycles, MakespanCycles and MCUtilization
	// mirror the PredictResponse fields.
	Omega          float64   `json:"omega"`
	Cycles         float64   `json:"cycles"`
	BaselineCycles float64   `json:"baseline_cycles"`
	MakespanCycles float64   `json:"makespan_cycles"`
	MCUtilization  []float64 `json:"mc_utilization"`
	// Tier is TierAnalytical or TierSimulation; empty when the point
	// was not answered (Error says why).
	Tier string `json:"tier,omitempty"`
	// ConfigHash is the content address of this point's coordinate.
	ConfigHash string `json:"config_hash,omitempty"`
	// Error reports a point that could not be answered: shed by
	// admission control, canceled, or failed. The numeric fields are
	// zero when Error is set.
	Error string `json:"error,omitempty"`
}

// CurveSummary is the terminal record of a curve response: in batched
// mode the summary field of CurveResponse, in streaming mode the last
// NDJSON frame.
type CurveSummary struct {
	// Points is the number of requested core counts; it always equals
	// Analytical + Simulation + Shed + Failed.
	Points int `json:"points"`
	// Analytical and Simulation count the points each tier answered.
	Analytical int `json:"analytical"`
	Simulation int `json:"simulation"`
	// Shed counts points rejected by simulation-tier admission control
	// (each simulation point is charged one admission token).
	Shed int `json:"shed,omitempty"`
	// Failed counts points whose simulation errored or was canceled.
	Failed int `json:"failed,omitempty"`
	// Fit is the fit summary behind the analytical points, when any.
	Fit *Fit `json:"fit,omitempty"`
}

// CurveResponse is the batched POST /v1/curve success body. Points come
// back in request order.
type CurveResponse struct {
	// Machine, Program, Class and Scale echo the resolved query.
	Machine string  `json:"machine"`
	Program string  `json:"program"`
	Class   string  `json:"class"`
	Scale   float64 `json:"scale"`
	// Points holds one CurvePoint per requested core count, in request
	// order.
	Points []CurvePoint `json:"points"`
	// Summary aggregates the curve (point counts per tier, fit stats).
	Summary CurveSummary `json:"summary"`
}

// CurveFrame is one line of the streaming (NDJSON) curve response.
// Exactly one field is set: Point for each sample as it becomes
// available (analytical points first — they cost microseconds — then
// simulation points in completion order), Summary exactly once as the
// terminal frame.
type CurveFrame struct {
	Point   *CurvePoint   `json:"point,omitempty"`
	Summary *CurveSummary `json:"summary,omitempty"`
}

// CatalogMachine is one machine entry of GET /v1/catalog.
type CatalogMachine struct {
	Name           string `json:"name"`
	Kind           string `json:"kind"`
	Sockets        int    `json:"sockets"`
	CoresPerSocket int    `json:"cores_per_socket"`
	TotalCores     int    `json:"total_cores"`
}

// CatalogProgram is one workload entry of GET /v1/catalog.
type CatalogProgram struct {
	Name        string   `json:"name"`
	Classes     []string `json:"classes"`
	Description string   `json:"description"`
}

// CatalogResponse is the GET /v1/catalog body.
type CatalogResponse struct {
	Scale    float64          `json:"scale"`
	Machines []CatalogMachine `json:"machines"`
	Programs []CatalogProgram `json:"programs"`
}

// HealthzResponse is the GET /healthz body. The latency quantiles are
// interpolated from the predict latency histogram and are 0 before the
// first request.
type HealthzResponse struct {
	Status       string  `json:"status"`
	Scale        float64 `json:"scale"`
	Fits         int     `json:"fits"`
	CachedRuns   int     `json:"cached_runs"`
	QueueDepth   int     `json:"queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	TenantCap    int     `json:"tenant_cap"`
	Tenants      int     `json:"tenants"`
	PredictP50Ms float64 `json:"predict_p50_ms"`
	PredictP99Ms float64 `json:"predict_p99_ms"`
}
