package experiments

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Fit is one anchor fit of the paper's model: the fitted closed form and
// the confidence numbers the analytical tier gates on. FitAnchors is the
// module's only path from anchor measurements to a model, so Fig. 5/6, the
// contention CLI and the serving layer (internal/model) all report the
// same numbers for the same anchors.
type Fit struct {
	// Model is the fitted closed form (core.Fit).
	Model core.Model
	// Anchors are the core counts of the measurements the fit used, in
	// measurement order (AnchorPlan for the machine's geometry).
	Anchors []int
	// R2 is the goodness-of-fit of the single-socket 1/C(n) regression.
	R2 float64
	// Residual is the maximum relative error of the fitted C(n) over the
	// anchor measurements themselves, +Inf when an anchor lies at or past
	// the fitted saturation point.
	Residual float64
	// SaturationCores is the fitted μ/L: the core count at which the
	// modeled memory system saturates.
	SaturationCores float64
}

// DeclineReason explains why the analytical tier refused a query and the
// serving layer fell back to simulation. The empty string means it
// answered. Gate returns the fit-level reasons; internal/model adds the
// per-query ones.
type DeclineReason string

const (
	// DeclineNoFit: no anchor fit exists yet for this
	// (machine, program, class, scale) pair, or the core count is outside
	// the machine.
	DeclineNoFit DeclineReason = "no_fit"
	// DeclineLowR2: the single-socket 1/C(n) regression fit worse than
	// the minimum R² — the workload does not behave like the M/M/1 model
	// (the paper's Table IV shows this for EP and x264), so closed-form
	// answers would be guesses.
	DeclineLowR2 DeclineReason = "low_r2"
	// DeclineResidual: the fitted model fails to reproduce its own anchor
	// measurements within the maximum relative error.
	DeclineResidual DeclineReason = "high_residual"
	// DeclineSaturated: the requested core count is at or beyond the
	// fitted saturation point μ/L, where the M/M/1 closed form diverges.
	DeclineSaturated DeclineReason = "saturated"
)

// Gate is the fit-level confidence rule: DeclineLowR2 when R2 is below
// minR2, else DeclineResidual when Residual exceeds maxResidual, else ""
// (the fit may answer). A +Inf residual declines at any finite bound.
func (f *Fit) Gate(minR2, maxResidual float64) DeclineReason {
	if f.R2 < minR2 {
		return DeclineLowR2
	}
	if f.Residual > maxResidual {
		return DeclineResidual
	}
	return ""
}

// ModelKindFor maps a machine spec to the model variant.
func ModelKindFor(spec machine.Spec) core.Kind {
	if spec.UMA() {
		return core.UMA
	}
	return core.NUMA
}

// AnchorPlan returns the paper's measurement plan for the machine's
// geometry (core.PaperInputs): the core counts a fit is made from.
func AnchorPlan(spec machine.Spec) []int {
	return core.PaperInputs(ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
}

// FitAnchors fits the model to anchor measurements taken on spec and
// measures how well the fit reproduces them.
func FitAnchors(spec machine.Spec, meas []core.Measurement, opts core.Options) (Fit, error) {
	m, err := core.Fit(ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket, meas, opts)
	if err != nil {
		return Fit{}, err
	}
	fit := Fit{
		Model:           m,
		Anchors:         make([]int, len(meas)),
		R2:              m.Single.R2,
		SaturationCores: m.Single.SaturationCores(),
	}
	for i, mm := range meas {
		fit.Anchors[i] = mm.Cores
		// C is +Inf for an anchor at or past saturation, which makes the
		// residual +Inf.
		if rel := math.Abs(m.C(mm.Cores)-mm.Cycles) / mm.Cycles; rel > fit.Residual {
			fit.Residual = rel
		}
	}
	return fit, nil
}

// FitPlan measures program.class at the machine's AnchorPlan (cache hits
// and journal replays are free) and fits the model to it.
func (r *Runner) FitPlan(ctx context.Context, spec machine.Spec, program string, class workload.Class, opts core.Options) (Fit, error) {
	meas, err := r.Sweep(ctx, spec, program, class, AnchorPlan(spec))
	if err != nil {
		return Fit{}, err
	}
	return FitAnchors(spec, meas, opts)
}
