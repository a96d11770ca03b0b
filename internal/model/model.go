package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Tier names which backend produced a Prediction.
type Tier string

const (
	// TierAnalytical marks an answer computed from the fitted closed form
	// without running a simulation.
	TierAnalytical Tier = "analytical"
	// TierSimulation marks an answer measured by a full simulation run
	// (possibly served from the runner's content-addressed cache).
	TierSimulation Tier = "simulation"
)

// DeclineReason explains why the analytical tier refused a query and the
// predictor fell back to simulation. The empty string means it answered.
type DeclineReason string

const (
	// DeclineNoFit: no anchor fit exists yet for this
	// (machine, program, class, scale) pair.
	DeclineNoFit DeclineReason = "no_fit"
	// DeclineLowR2: the single-socket 1/C(n) regression fit worse than
	// Predictor.MinR2 — the workload does not behave like the M/M/1 model
	// (the paper's Table IV shows this for EP and x264), so closed-form
	// answers would be guesses.
	DeclineLowR2 DeclineReason = "low_r2"
	// DeclineResidual: the fitted model fails to reproduce its own anchor
	// measurements within Predictor.MaxResidual relative error.
	DeclineResidual DeclineReason = "high_residual"
	// DeclineSaturated: the requested core count is at or beyond the
	// fitted saturation point μ/L, where the M/M/1 closed form diverges.
	DeclineSaturated DeclineReason = "saturated"
)

// Default confidence bounds for the analytical tier. MinR2 mirrors the
// paper's Table IV reading — contended programs fit 1/C(n) with R² well
// above 0.95, while EP/x264 fall below it — and MaxResidual matches the
// paper's 5–14% model-error band: a fit that cannot reproduce its own
// anchors within 10% has no business extrapolating between them.
const (
	DefaultMinR2       = 0.95
	DefaultMaxResidual = 0.10
)

// ErrBadCores reports a requested core count outside 1..TotalCores.
var ErrBadCores = errors.New("model: cores out of machine range")

// FitInfo summarizes one fitted analytical model, for responses and logs.
type FitInfo struct {
	// Anchors are the core counts of the measurement plan the fit used
	// (core.PaperInputs for the machine's geometry).
	Anchors []int
	// R2 is the goodness-of-fit of the single-socket 1/C(n) regression.
	R2 float64
	// Residual is the maximum relative error of the fitted C(n) over the
	// anchor measurements themselves.
	Residual float64
	// SaturationCores is the fitted μ/L — the core count at which the
	// modeled memory system saturates.
	SaturationCores float64
}

// Prediction is one answered contention query.
//
// Analytical answers come from their fit's answer table, so every answer
// of one fit shares its Fit pointer and each core count's MCUtilization
// slice with every other caller. Both are read-only: no caller in this
// module writes them, and none may.
type Prediction struct {
	// Machine, Program, Class, Cores and Scale echo the resolved query.
	Machine string
	Program string
	Class   workload.Class
	Cores   int
	Scale   float64
	// Omega is the predicted degree of memory contention
	// ω(n) = (C(n) − C(1)) / C(1), the paper's equation (4).
	Omega float64
	// Cycles is C(n): total cycles summed over threads.
	Cycles float64
	// BaselineCycles is C(1), the contention-free baseline normalizing ω.
	BaselineCycles float64
	// MakespanCycles is the predicted wall-clock duration of the run in
	// cycles. The simulation tier reports the measured makespan; the
	// analytical tier approximates it as C(n)/n (total cycles spread
	// evenly over the active cores — exact under the paper's protocol of
	// threads pinned round-robin on n cores; see docs/MODEL.md §4).
	MakespanCycles float64
	// MCUtilization has one entry per memory controller. The simulation
	// tier measures channel busy fraction; the analytical tier derives
	// ρ = kL/μ per controller from the fitted queue parameters, capped
	// at 1 (see docs/MODEL.md §3).
	MCUtilization []float64
	// Tier names the backend that produced the answer.
	Tier Tier
	// Fit carries the fit summary for analytical answers, nil otherwise.
	Fit *FitInfo
	// ConfigHash is the content address of the (machine, program, class,
	// cores, scale) coordinate — the same key the runner cache and the
	// NDJSON journal use, hashed canonically (experiments.RunKey.Hash).
	ConfigHash string
}

// fitKey addresses one fitted model.
type fitKey struct {
	machine string
	program string
	class   workload.Class
	scale   float64
}

// fitEntry is one stored fit: the spec it was fitted on, the model, its
// confidence stats and its answer table.
type fitEntry struct {
	spec  machine.Spec
	model core.Model
	info  *FitInfo
	// answers[n-1] is the analytical answer at n cores on spec, the zero
	// Prediction where the closed form saturates. Built once by fit and
	// never written after, so readers share it without a lock.
	answers []Prediction
}

// Predictor answers contention queries analytically when a trustworthy
// fit exists and by full simulation otherwise. See doc.go for the tier
// and concurrency contracts. Configure the exported fields before first
// use; the zero values select the documented defaults.
type Predictor struct {
	// MinR2 is the minimum single-socket regression R² for the analytical
	// tier to answer. Zero means DefaultMinR2; negative disables the
	// check (tests force the analytical path with MinR2 = -1).
	MinR2 float64
	// MaxResidual is the maximum relative error of the fit over its own
	// anchors. Zero means DefaultMaxResidual; values >= 1e9 effectively
	// disable the check.
	MaxResidual float64
	// Opts tunes the core.Fit regression (e.g. Homogeneous).
	Opts core.Options
	// Tracer, when non-nil, receives model.fit and model.decline events.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, counts fits (model_fits_total) and declines
	// (model_declines_total).
	Metrics *telemetry.Registry

	runner *experiments.Runner

	mu   sync.RWMutex
	fits map[fitKey]*fitEntry
}

// New returns a Predictor backed by the given runner. The runner supplies
// the simulation fallback, the content-addressed result cache the anchors
// are fitted from, and (when attached) the NDJSON persistence journal.
func New(r *experiments.Runner) *Predictor {
	return &Predictor{runner: r, fits: make(map[fitKey]*fitEntry)}
}

// Scale returns the workload scale of the backing runner. Every cache
// key, fit and prediction of this predictor is at this fidelity.
func (p *Predictor) Scale() float64 { return p.runner.Tuning.RefScale }

// FitCount returns the number of (machine, program, class) pairs with a
// fitted analytical model.
func (p *Predictor) FitCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.fits)
}

// CachedRuns returns the number of simulation results in the backing
// runner's content-addressed cache.
func (p *Predictor) CachedRuns() int { return p.runner.CacheLen() }

// minR2 resolves the configured threshold.
func (p *Predictor) minR2() float64 {
	if p.MinR2 == 0 {
		return DefaultMinR2
	}
	return p.MinR2
}

// maxResidual resolves the configured threshold.
func (p *Predictor) maxResidual() float64 {
	if p.MaxResidual == 0 {
		return DefaultMaxResidual
	}
	return p.MaxResidual
}

// key builds the content address of one query against this predictor's
// scale.
func (p *Predictor) key(spec machine.Spec, program string, class workload.Class, cores int) experiments.RunKey {
	return p.runner.KeyFor(spec, program, class, cores)
}

// Analytical answers the query from the fitted closed form, or declines
// with the reason. It never simulates and never blocks on the runner: it
// applies the confidence gates and indexes the fit's answer table, which
// fit built once — one read-locked map lookup, no hashing, no
// arithmetic, no allocation. An empty DeclineReason means the Prediction
// is valid; its Fit and MCUtilization are shared and read-only.
func (p *Predictor) Analytical(spec machine.Spec, program string, class workload.Class, cores int) (Prediction, DeclineReason) {
	if cores < 1 || cores > spec.TotalCores() {
		// Range errors are caught properly by Predict; analytically this
		// is simply not answerable.
		return Prediction{}, DeclineNoFit
	}
	entry, gate := p.lookupFit(spec.Name, program, class)
	if gate != "" {
		return Prediction{}, p.decline(gate, spec, program, class, cores)
	}
	return p.answer(entry, &spec, spec.Equal(entry.spec), program, class, cores)
}

// lookupFit resolves the pair's stored fit and applies the fit-level
// confidence gates (existence, R², residual). They read MinR2 and
// MaxResidual on every call, so only fit-invariant content is tabled.
// An empty DeclineReason means the entry is trustworthy; saturation is
// per point, in answer.
func (p *Predictor) lookupFit(machineName, program string, class workload.Class) (*fitEntry, DeclineReason) {
	p.mu.RLock()
	entry, ok := p.fits[fitKey{machineName, program, class, p.Scale()}]
	p.mu.RUnlock()
	if !ok {
		return nil, DeclineNoFit
	}
	if entry.info.R2 < p.minR2() {
		return entry, DeclineLowR2
	}
	if entry.info.Residual > p.maxResidual() {
		return entry, DeclineResidual
	}
	return entry, ""
}

// answer returns an already-gated fit's answer at one core count — the
// shared tail of Analytical and AnalyticalCurve, so a curve point and a
// single query at the same coordinate are the same value. tabled says
// spec equals the spec the fit was made on, so the answer table holds
// the point; a different spec under the same name (a mutated preset) is
// computed by analyticalAt, the function that filled the table. spec is
// a pointer only to spare the hot path a copy.
func (p *Predictor) answer(entry *fitEntry, spec *machine.Spec, tabled bool, program string, class workload.Class, cores int) (Prediction, DeclineReason) {
	var pred Prediction
	if tabled {
		pred = entry.answers[cores-1]
	} else {
		pred = p.analyticalAt(entry.model, entry.info, *spec, program, class, cores)
	}
	if pred.Tier == "" {
		return Prediction{}, p.decline(DeclineSaturated, *spec, program, class, cores)
	}
	return pred, ""
}

// analyticalAt evaluates the fitted closed form at one core count on
// spec, or returns the zero Prediction where it saturates (C(n) infinite
// or not positive).
func (p *Predictor) analyticalAt(m core.Model, info *FitInfo, spec machine.Spec, program string, class workload.Class, cores int) Prediction {
	cn := m.C(cores)
	if math.IsInf(cn, 0) || cn <= 0 {
		return Prediction{}
	}
	return Prediction{
		Machine:        spec.Name,
		Program:        program,
		Class:          class,
		Cores:          cores,
		Scale:          p.Scale(),
		Omega:          m.Omega(cores),
		Cycles:         cn,
		BaselineCycles: m.C1,
		MakespanCycles: cn / float64(cores),
		MCUtilization:  analyticalMCUtil(spec, m.Single, cores),
		Tier:           TierAnalytical,
		Fit:            info,
		ConfigHash:     p.key(spec, program, class, cores).Hash(),
	}
}

// AnalyticalCurve evaluates the fitted closed form at every requested
// core count with a single fit lookup — the whole-curve counterpart of
// Analytical, for serving ω(n) sweeps. It returns parallel slices:
// point i is answered iff reasons[i] is empty. The fit-level gates
// (no_fit, low_r2, high_residual) decline every point alike; saturation
// declines per point, so a curve can mix tiers only past the fitted
// μ/L. Like Analytical, it never simulates and never blocks on the
// runner.
func (p *Predictor) AnalyticalCurve(spec machine.Spec, program string, class workload.Class, cores []int) ([]Prediction, []DeclineReason) {
	preds := make([]Prediction, len(cores))
	reasons := make([]DeclineReason, len(cores))
	entry, gate := p.lookupFit(spec.Name, program, class)
	tabled := gate == "" && spec.Equal(entry.spec)
	for i, n := range cores {
		if n < 1 || n > spec.TotalCores() {
			reasons[i] = DeclineNoFit
			continue
		}
		if gate != "" {
			reasons[i] = p.decline(gate, spec, program, class, n)
			continue
		}
		preds[i], reasons[i] = p.answer(entry, &spec, tabled, program, class, n)
	}
	return preds, reasons
}

// decline records one analytical refusal on the telemetry sinks and
// returns the reason unchanged.
func (p *Predictor) decline(reason DeclineReason, spec machine.Spec, program string, class workload.Class, cores int) DeclineReason {
	if p.Metrics != nil {
		p.Metrics.Counter("model_declines_total").Inc()
	}
	if p.Tracer.Enabled() {
		p.Tracer.Emit("model.decline",
			"machine", spec.Name, "program", program, "class", string(class),
			"cores", cores, "reason", string(reason))
	}
	return reason
}

// Predict answers the query: analytically when the fit allows it, by full
// simulation otherwise. The simulation path runs C(n) and — for the ω
// baseline — C(1) through the runner (cached, deduplicated, journaled)
// and then opportunistically fits the pair if its anchor plan is now
// fully cached, so repeated cold queries migrate to the fast path.
// Cancelling ctx aborts a fallback wherever it is; the analytical path
// never blocks.
func (p *Predictor) Predict(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores int) (Prediction, error) {
	if cores < 1 || cores > spec.TotalCores() {
		return Prediction{}, fmt.Errorf("%w: %d on %s (1..%d)", ErrBadCores, cores, spec.Name, spec.TotalCores())
	}
	if pred, reason := p.Analytical(spec, program, class, cores); reason == "" {
		return pred, nil
	}
	res, err := p.runner.Run(ctx, spec, program, class, cores)
	if err != nil {
		return Prediction{}, err
	}
	base, err := p.runner.Run(ctx, spec, program, class, 1)
	if err != nil {
		return Prediction{}, err
	}
	p.refitFromCache(ctx, spec, program, class)
	return p.simPrediction(spec, program, class, cores, res, base), nil
}

// simPrediction assembles a simulation-tier Prediction from a measured
// run and its single-core baseline — the shared tail of Predict and
// PredictStream, so a streamed curve point and a single query at the
// same coordinate carry identical values.
func (p *Predictor) simPrediction(spec machine.Spec, program string, class workload.Class, cores int, res, base sim.Result) Prediction {
	return Prediction{
		Machine:        spec.Name,
		Program:        program,
		Class:          class,
		Cores:          cores,
		Scale:          p.Scale(),
		Omega:          core.Omega(float64(res.TotalCycles), float64(base.TotalCycles)),
		Cycles:         float64(res.TotalCycles),
		BaselineCycles: float64(base.TotalCycles),
		MakespanCycles: float64(res.Makespan),
		MCUtilization:  simMCUtil(spec, res),
		Tier:           TierSimulation,
		ConfigHash:     p.key(spec, program, class, cores).Hash(),
	}
}

// PredictStream answers many simulation-tier core counts of one
// (machine, program, class) pair through the runner's worker pool,
// invoking fn once per index in completion order — cache hits first,
// cold runs as they finish. The single-core ω baseline is run (or
// fetched from cache) before the batch so each point can be assembled
// the moment its own run settles. fn is called from one goroutine, never
// concurrently, and exactly once per index: failed and canceled points
// carry the error. After the batch settles the pair is opportunistically
// refitted from cache, so a served curve migrates the pair to the
// analytical tier just like N individual Predict calls would.
func (p *Predictor) PredictStream(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores []int, fn func(i int, pred Prediction, err error)) {
	valid := make([]int, 0, len(cores))
	for i, n := range cores {
		if n < 1 || n > spec.TotalCores() {
			fn(i, Prediction{}, fmt.Errorf("%w: %d on %s (1..%d)", ErrBadCores, n, spec.Name, spec.TotalCores()))
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return
	}
	base, err := p.runner.Run(ctx, spec, program, class, 1)
	if err != nil {
		for _, i := range valid {
			fn(i, Prediction{}, err)
		}
		return
	}
	items := make([]experiments.RunItem, len(valid))
	for j, i := range valid {
		items[j] = experiments.RunItem{Spec: spec, Program: program, Class: class, Cores: cores[i]}
	}
	for sr := range p.runner.RunStream(ctx, items) {
		i := valid[sr.Index]
		if sr.Err != nil {
			fn(i, Prediction{}, sr.Err)
			continue
		}
		fn(i, p.simPrediction(spec, program, class, cores[i], sr.Res, base), nil)
	}
	p.refitFromCache(ctx, spec, program, class)
}

// Warm fits the analytical model for one (machine, program, class) pair
// by running its anchor plan — core.PaperInputs for the geometry, a
// handful of runs — through the runner (cache hits and journal replays
// are free) and storing the fit. It returns the fit summary; serving
// starts declining or answering per the confidence rules immediately.
func (p *Predictor) Warm(ctx context.Context, spec machine.Spec, program string, class workload.Class) (FitInfo, error) {
	plan := core.PaperInputs(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
	meas, err := p.runner.Sweep(ctx, spec, program, class, plan)
	if err != nil {
		return FitInfo{}, err
	}
	return p.fit(spec, program, class, plan, meas)
}

// refitFromCache fits the pair if no fit exists yet and every anchor of
// its plan is already in the runner's cache. It never simulates; it is
// the self-improvement hook Predict calls after each fallback. When the
// context carries a request span, the attempt is recorded as a
// "model.refit" child span (with a fitted attribute) so traceview can
// show which request paid for a background refit.
func (p *Predictor) refitFromCache(ctx context.Context, spec machine.Spec, program string, class workload.Class) {
	var span telemetry.Span
	if p.Tracer.Enabled() {
		if sc, ok := telemetry.SpanFromContext(ctx); ok {
			span = p.Tracer.StartSpan(sc, "model.refit")
		}
	}
	fitted := false
	defer func() { span.End("fitted", fitted) }()

	k := fitKey{spec.Name, program, class, p.Scale()}
	p.mu.RLock()
	_, done := p.fits[k]
	p.mu.RUnlock()
	if done {
		return
	}
	plan := core.PaperInputs(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
	meas := make([]core.Measurement, 0, len(plan))
	for _, n := range plan {
		res, ok := p.runner.Cached(p.key(spec, program, class, n))
		if !ok {
			return
		}
		meas = append(meas, core.Measurement{
			Cores:     n,
			Cycles:    float64(res.TotalCycles),
			LLCMisses: float64(res.LLCMisses),
		})
	}
	// Errors here mean the cached anchors cannot support a fit (e.g. a
	// degenerate workload); the pair simply stays on the simulation tier.
	_, err := p.fit(spec, program, class, plan, meas)
	fitted = err == nil
}

// fit runs the core regression over anchor measurements, computes the
// confidence stats, builds the answer table for every core count of spec
// and stores the entry.
func (p *Predictor) fit(spec machine.Spec, program string, class workload.Class, plan []int, meas []core.Measurement) (FitInfo, error) {
	kind := experiments.ModelKindFor(spec)
	m, err := core.Fit(kind, spec.Sockets, spec.CoresPerSocket, meas, p.Opts)
	if err != nil {
		return FitInfo{}, err
	}
	residual := 0.0
	for _, mm := range meas {
		pred := m.C(mm.Cores)
		if math.IsInf(pred, 0) {
			residual = math.Inf(1)
			break
		}
		if rel := math.Abs(pred-mm.Cycles) / mm.Cycles; rel > residual {
			residual = rel
		}
	}
	info := &FitInfo{
		Anchors:         append([]int(nil), plan...),
		R2:              m.Single.R2,
		Residual:        residual,
		SaturationCores: m.Single.SaturationCores(),
	}
	entry := &fitEntry{spec: spec, model: m, info: info, answers: make([]Prediction, spec.TotalCores())}
	for n := range entry.answers {
		entry.answers[n] = p.analyticalAt(m, info, spec, program, class, n+1)
	}
	p.mu.Lock()
	p.fits[fitKey{spec.Name, program, class, p.Scale()}] = entry
	p.mu.Unlock()
	if p.Metrics != nil {
		p.Metrics.Counter("model_fits_total").Inc()
	}
	if p.Tracer.Enabled() {
		p.Tracer.Emit("model.fit",
			"machine", spec.Name, "program", program, "class", string(class),
			"anchors", len(plan), "r2", info.R2, "residual", info.Residual,
			"saturation_cores", info.SaturationCores)
	}
	return *info, nil
}

// analyticalMCUtil derives per-controller utilization from the fitted
// M/M/1 parameters: a controller fed by k active cores runs at
// ρ = kL/μ = k·(L/r)/(μ/r) — the r(n) normalization cancels. UMA
// machines report their one shared controller; NUMA machines report each
// socket's controllers fed by that socket's active cores, split evenly
// when a socket has several. Values cap at 1 (beyond saturation the open
// queue has no steady state).
func analyticalMCUtil(spec machine.Spec, sf core.SingleFit, n int) []float64 {
	lOverMu := 0.0
	if sf.MuOverR > 0 {
		lOverMu = sf.LOverR / sf.MuOverR
	}
	if spec.UMA() {
		return []float64{clamp01(float64(n) * lOverMu)}
	}
	util := make([]float64, 0, spec.Sockets*spec.MCsPerSocket)
	for s := 0; s < spec.Sockets; s++ {
		k := core.CoresOnSocket(n, spec.CoresPerSocket, s)
		per := float64(k) * lOverMu / float64(spec.MCsPerSocket)
		for mc := 0; mc < spec.MCsPerSocket; mc++ {
			util = append(util, clamp01(per))
		}
	}
	return util
}

// simMCUtil computes measured per-controller utilization: channel busy
// cycles over makespan × channels.
func simMCUtil(spec machine.Spec, res sim.Result) []float64 {
	if res.Makespan == 0 {
		return nil
	}
	channels := float64(spec.MC.Channels)
	if channels <= 0 {
		channels = 1
	}
	util := make([]float64, len(res.MCStats))
	for i, st := range res.MCStats {
		util[i] = clamp01(float64(st.BusyCycles) / (float64(res.Makespan) * channels))
	}
	return util
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
