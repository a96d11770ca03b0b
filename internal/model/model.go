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
	// Fit is the anchor fit behind an analytical answer, nil otherwise.
	Fit *experiments.Fit
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

// fitEntry is one stored fit: the spec it was fitted on, the fit and its
// answer table.
type fitEntry struct {
	spec machine.Spec
	fit  *experiments.Fit
	// answers[n-1] is the analytical answer at n cores on spec, the zero
	// Prediction where the closed form saturates. Built once by store and
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

// Analytical answers the query from the fitted closed form, or declines
// with the reason. It never simulates and never blocks on the runner: it
// applies the confidence gates and indexes the fit's answer table, which
// store built once — one read-locked map lookup, no hashing, no
// arithmetic, no allocation. An empty reason means the Prediction is
// valid; its Fit and MCUtilization are shared and read-only.
func (p *Predictor) Analytical(spec machine.Spec, program string, class workload.Class, cores int) (Prediction, experiments.DeclineReason) {
	if cores < 1 || cores > spec.TotalCores() {
		// Range errors are reported by PredictStream; analytically this
		// is simply not answerable.
		return Prediction{}, experiments.DeclineNoFit
	}
	entry, gate := p.lookupFit(&spec, program, class)
	if gate != "" {
		return Prediction{}, p.decline(gate, spec, program, class, cores)
	}
	return p.answer(entry, &spec, program, class, cores)
}

// lookupFit resolves the pair's stored fit and applies the fit-level
// confidence gates: existence here, R² and residual in Fit.Gate. They
// read MinR2 and MaxResidual on every call, so only fit-invariant
// content is tabled. Fits are keyed by machine name, so a spec that is
// not the one the fit was made on (a mutated preset) has no fit. An
// empty reason means the entry is trustworthy; saturation is per point,
// in answer. spec is a pointer only to spare the hot path a copy.
func (p *Predictor) lookupFit(spec *machine.Spec, program string, class workload.Class) (*fitEntry, experiments.DeclineReason) {
	p.mu.RLock()
	entry, ok := p.fits[fitKey{spec.Name, program, class, p.Scale()}]
	p.mu.RUnlock()
	if !ok || !spec.Equal(entry.spec) {
		return nil, experiments.DeclineNoFit
	}
	minR2, maxResidual := p.MinR2, p.MaxResidual
	if minR2 == 0 {
		minR2 = DefaultMinR2
	}
	if maxResidual == 0 {
		maxResidual = DefaultMaxResidual
	}
	return entry, entry.fit.Gate(minR2, maxResidual)
}

// answer returns an already-gated fit's answer at one core count from
// its answer table — the shared tail of Analytical and AnalyticalCurve,
// so a curve point and a single query at the same coordinate are the
// same value. spec is a pointer only to spare the hot path a copy.
func (p *Predictor) answer(entry *fitEntry, spec *machine.Spec, program string, class workload.Class, cores int) (Prediction, experiments.DeclineReason) {
	pred := entry.answers[cores-1]
	if pred.Tier == "" {
		return Prediction{}, p.decline(experiments.DeclineSaturated, *spec, program, class, cores)
	}
	return pred, ""
}

// analyticalAt evaluates the fitted closed form at one core count on
// spec, or returns the zero Prediction where it saturates (C(n) infinite
// or not positive).
func (p *Predictor) analyticalAt(fit *experiments.Fit, spec machine.Spec, program string, class workload.Class, cores int) Prediction {
	m := &fit.Model
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
		Fit:            fit,
		ConfigHash:     p.runner.KeyFor(spec, program, class, cores).Hash(),
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
func (p *Predictor) AnalyticalCurve(spec machine.Spec, program string, class workload.Class, cores []int) ([]Prediction, []experiments.DeclineReason) {
	preds := make([]Prediction, len(cores))
	reasons := make([]experiments.DeclineReason, len(cores))
	entry, gate := p.lookupFit(&spec, program, class)
	for i, n := range cores {
		if n < 1 || n > spec.TotalCores() {
			reasons[i] = experiments.DeclineNoFit
			continue
		}
		if gate != "" {
			reasons[i] = p.decline(gate, spec, program, class, n)
			continue
		}
		preds[i], reasons[i] = p.answer(entry, &spec, program, class, n)
	}
	return preds, reasons
}

// decline records one analytical refusal on the telemetry sinks and
// returns the reason unchanged.
func (p *Predictor) decline(reason experiments.DeclineReason, spec machine.Spec, program string, class workload.Class, cores int) experiments.DeclineReason {
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

// simPrediction assembles a simulation-tier Prediction from a measured
// run and its single-core baseline.
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
		ConfigHash:     p.runner.KeyFor(spec, program, class, cores).Hash(),
	}
}

// PredictStream is the simulation tier: it answers core counts of one
// (machine, program, class) pair by full simulation through the
// runner's worker pool (cached, deduplicated, journaled), invoking fn
// once per index in completion order — cache hits first, cold runs as
// they finish. It never consults the fit: callers ask Analytical or
// AnalyticalCurve first and simulate only what they declined, so each
// refusal is counted once. The single-core ω baseline is run (or
// fetched from cache) before the batch so each point can be assembled
// the moment its own run settles. fn is called from one goroutine, never
// concurrently, and exactly once per index: failed and canceled points
// carry the error; cancelling ctx fails the points still running. After
// the batch settles the pair is opportunistically refitted from cache,
// so repeated cold queries migrate the pair to the analytical tier.
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
// by running its anchor plan — experiments.AnchorPlan, a handful of runs
// — through the runner (cache hits and journal replays are free) and
// storing the fit. It returns the fit; serving starts declining or
// answering per the confidence rules immediately.
func (p *Predictor) Warm(ctx context.Context, spec machine.Spec, program string, class workload.Class) (experiments.Fit, error) {
	fit, err := p.runner.FitPlan(ctx, spec, program, class, core.Options{})
	if err == nil {
		p.store(spec, program, class, fit)
	}
	return fit, err
}

// refitFromCache fits the pair if no fit exists yet and every anchor of
// its plan is already in the runner's cache. It never simulates; it is
// the self-improvement hook PredictStream calls after each batch. When the
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

	p.mu.RLock()
	_, done := p.fits[fitKey{spec.Name, program, class, p.Scale()}]
	p.mu.RUnlock()
	if done {
		return
	}
	meas, ok := p.runner.CachedSweep(spec, program, class, experiments.AnchorPlan(spec))
	if !ok {
		return
	}
	// An error means the cached anchors cannot support a fit (e.g. a
	// degenerate workload); the pair simply stays on the simulation tier.
	if fit, err := experiments.FitAnchors(spec, meas, core.Options{}); err == nil {
		p.store(spec, program, class, fit)
		fitted = true
	}
}

// store builds the fit's answer table for every core count of spec,
// stores the entry and records the fit on the telemetry sinks.
func (p *Predictor) store(spec machine.Spec, program string, class workload.Class, fit experiments.Fit) {
	entry := &fitEntry{spec: spec, fit: &fit, answers: make([]Prediction, spec.TotalCores())}
	for n := range entry.answers {
		entry.answers[n] = p.analyticalAt(entry.fit, spec, program, class, n+1)
	}
	p.mu.Lock()
	p.fits[fitKey{spec.Name, program, class, p.Scale()}] = entry
	p.mu.Unlock()
	if p.Metrics != nil {
		p.Metrics.Counter("model_fits_total").Inc()
	}
	if p.Tracer.Enabled() {
		attrs := []any{"machine", spec.Name, "program", program, "class", string(class),
			"anchors", len(fit.Anchors), "r2", fit.R2}
		// JSON has no infinity: a fit that never saturates, or one with an
		// anchor past saturation, omits the field, as api.Fit does.
		attrs = appendFinite(attrs, "residual", fit.Residual)
		attrs = appendFinite(attrs, "saturation_cores", fit.SaturationCores)
		p.Tracer.Emit("model.fit", attrs...)
	}
}

// appendFinite appends the key and v to attrs unless v is infinite or NaN.
func appendFinite(attrs []any, key string, v float64) []any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return attrs
	}
	return append(attrs, key, v)
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
