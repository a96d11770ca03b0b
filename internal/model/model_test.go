package model_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/workload"
)

func mustSpec(t *testing.T, name string) machine.Spec {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclineReasons walks the analytical tier's refusal ladder: no fit,
// then a fit rejected by each confidence bound in turn.
func TestDeclineReasons(t *testing.T) {
	if testing.Short() {
		t.Skip("fits anchors by simulation")
	}
	spec := mustSpec(t, "IntelUMA8")
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	p := model.New(r)

	if _, reason := p.Analytical(spec, "CG", "W", 4); reason != experiments.DeclineNoFit {
		t.Fatalf("before Warm: reason = %q, want %q", reason, experiments.DeclineNoFit)
	}
	if _, reason := p.Analytical(spec, "CG", "W", 0); reason != experiments.DeclineNoFit {
		t.Fatalf("cores out of range: reason = %q, want %q", reason, experiments.DeclineNoFit)
	}

	info, err := p.Warm(context.Background(), spec, "CG", "W")
	if err != nil {
		t.Fatal(err)
	}
	if p.FitCount() != 1 {
		t.Fatalf("FitCount = %d after Warm, want 1", p.FitCount())
	}
	if len(info.Anchors) < 2 {
		t.Fatalf("fit used %v anchors, want at least 2", info.Anchors)
	}

	// An impossible R² bound turns every answer into a low_r2 decline.
	p.MinR2 = 2
	if _, reason := p.Analytical(spec, "CG", "W", 4); reason != experiments.DeclineLowR2 {
		t.Errorf("MinR2=2: reason = %q, want %q", reason, experiments.DeclineLowR2)
	}
	p.MinR2 = -1 // disable

	// A negative residual bound rejects even a perfect fit.
	p.MaxResidual = -1
	if _, reason := p.Analytical(spec, "CG", "W", 4); reason != experiments.DeclineResidual {
		t.Errorf("MaxResidual=-1: reason = %q, want %q", reason, experiments.DeclineResidual)
	}
	p.MaxResidual = 1e9 // disable

	pred, reason := p.Analytical(spec, "CG", "W", 4)
	if reason != "" {
		t.Fatalf("with checks disabled: declined %q", reason)
	}
	if pred.Tier != model.TierAnalytical {
		t.Errorf("tier = %q, want %q", pred.Tier, model.TierAnalytical)
	}
	if pred.Fit == nil {
		t.Error("analytical answer carries no Fit")
	}
	if pred.ConfigHash == "" {
		t.Error("analytical answer carries no ConfigHash")
	}
	if pred.Cycles <= 0 || pred.BaselineCycles <= 0 {
		t.Errorf("non-positive cycles: C(n)=%g C(1)=%g", pred.Cycles, pred.BaselineCycles)
	}
	if got := pred.MakespanCycles; math.Abs(got-pred.Cycles/4) > 1e-9*pred.Cycles {
		t.Errorf("analytical makespan = %g, want C(n)/n = %g", got, pred.Cycles/4)
	}
	if len(pred.MCUtilization) == 0 {
		t.Error("analytical answer has no MC utilization")
	}
	for i, u := range pred.MCUtilization {
		if u < 0 || u > 1 {
			t.Errorf("MCUtilization[%d] = %g outside [0,1]", i, u)
		}
	}
}

// simulate answers one core count on the simulation tier through
// PredictStream, the tier's only entry point.
func simulate(t *testing.T, p *model.Predictor, spec machine.Spec, program string, class workload.Class, cores int) (model.Prediction, error) {
	t.Helper()
	var pred model.Prediction
	var err error
	calls := 0
	p.PredictStream(context.Background(), spec, program, class, []int{cores}, func(i int, pr model.Prediction, e error) {
		calls++
		pred, err = pr, e
	})
	if calls != 1 {
		t.Fatalf("PredictStream called fn %d times for one point, want 1", calls)
	}
	return pred, err
}

// TestPredictBadCores checks the range error: fn sees every
// out-of-range point exactly once, carrying ErrBadCores.
func TestPredictBadCores(t *testing.T) {
	spec := mustSpec(t, "IntelUMA8")
	p := model.New(experiments.NewRunner(workload.Tuning{RefScale: 0.05}))
	cores := []int{0, -3, spec.TotalCores() + 1}
	seen := map[int]int{}
	p.PredictStream(context.Background(), spec, "CG", "W", cores, func(i int, _ model.Prediction, err error) {
		seen[i]++
		if !errors.Is(err, model.ErrBadCores) {
			t.Errorf("cores=%d: err = %v, want ErrBadCores", cores[i], err)
		}
	})
	for i, n := range cores {
		if seen[i] != 1 {
			t.Errorf("cores=%d: fn called %d times, want 1", n, seen[i])
		}
	}
}

// TestSelfImprovement exercises the fallback-to-fast-path migration: cold
// queries run on the simulation tier, and once the fallbacks have filled
// the anchor plan in the runner cache, the predictor fits it and answers
// the next query analytically — no Warm call anywhere.
func TestSelfImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	spec := mustSpec(t, "IntelUMA8")
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9

	// Anchors for IntelUMA8 are {1, 4, 5}. The first cold query measures
	// C(4) and its C(1) baseline — two of three anchors.
	pred, err := simulate(t, p, spec, "CG", "W", 4)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Tier != model.TierSimulation {
		t.Fatalf("cold query tier = %q, want simulation", pred.Tier)
	}
	if p.FitCount() != 0 {
		t.Fatalf("fit appeared with anchors missing: FitCount = %d", p.FitCount())
	}
	if _, reason := p.Analytical(spec, "CG", "W", 3); reason != experiments.DeclineNoFit {
		t.Fatalf("before the plan is cached: reason = %q, want %q", reason, experiments.DeclineNoFit)
	}

	// The second cold query measures C(5), completing the plan;
	// PredictStream's refit hook should fit the pair from cache without
	// new simulations.
	if _, err := simulate(t, p, spec, "CG", "W", 5); err != nil {
		t.Fatal(err)
	}
	if p.FitCount() != 1 {
		t.Fatalf("anchor plan complete but FitCount = %d, want 1", p.FitCount())
	}

	cached := p.CachedRuns()
	pred, reason := p.Analytical(spec, "CG", "W", 3)
	if reason != "" || pred.Tier != model.TierAnalytical {
		t.Errorf("post-fit query: tier %q, reason %q, want analytical", pred.Tier, reason)
	}
	if p.CachedRuns() != cached {
		t.Errorf("analytical answer ran simulations: cache grew %d -> %d", cached, p.CachedRuns())
	}
}

// TestAnalyticalAccuracy is the acceptance check: on IntelUMA8 the fitted
// model's C(n) stays within the paper's error band of the simulator's
// measurements at the core counts the fit never saw. The paper reports
// 5–14% average model error (Table V); we require the mean relative error
// over all non-anchor points ≤ 10% and every point ≤ 20%.
func TestAnalyticalAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep at scale 0.1")
	}
	spec := mustSpec(t, "IntelUMA8")
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.1})
	p := model.New(r)
	ctx := context.Background()

	info, err := p.Warm(ctx, spec, "CG", "C")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fit: anchors=%v r2=%.4f residual=%.4f saturation=%.2f",
		info.Anchors, info.R2, info.Residual, info.SaturationCores)

	anchors := make(map[int]bool)
	for _, n := range info.Anchors {
		anchors[n] = true
	}
	var sum float64
	var count int
	for n := 1; n <= spec.TotalCores(); n++ {
		if anchors[n] {
			continue
		}
		pred, reason := p.Analytical(spec, "CG", "C", n)
		if reason != "" {
			t.Fatalf("analytical tier declined n=%d: %s", n, reason)
		}
		res, err := r.Run(ctx, spec, "CG", "C", n)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred.Cycles-float64(res.TotalCycles)) / float64(res.TotalCycles)
		t.Logf("n=%d: model C(n)=%.0f sim C(n)=%d rel=%.3f", n, pred.Cycles, res.TotalCycles, rel)
		if rel > 0.20 {
			t.Errorf("n=%d: relative error %.1f%% exceeds 20%%", n, 100*rel)
		}
		sum += rel
		count++
	}
	if mean := sum / float64(count); mean > 0.10 {
		t.Errorf("mean relative error %.1f%% over %d points exceeds 10%%", 100*mean, count)
	}
}

// BenchmarkAnalytical measures the fast path after warm-up; the
// acceptance bar is well under a millisecond per answer.
func BenchmarkAnalytical(b *testing.B) {
	spec, err := machine.ByName("IntelUMA8")
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.NewRunner(workload.Tuning{RefScale: 0.05})
	p := model.New(r)
	p.MinR2 = -1
	p.MaxResidual = 1e9
	if _, err := p.Warm(context.Background(), spec, "CG", "W"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, reason := p.Analytical(spec, "CG", "W", 1+i%spec.TotalCores()); reason != "" {
			b.Fatalf("declined: %s", reason)
		}
	}
}
