package model

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestFitParity checks that every path to a fit gives the same fit for
// the same anchors: Warm, refitFromCache after Predict fallbacks have
// cached the plan, the reproduction's Runner.FitPlan and the fit inside
// ModelVsMeasurement. %#v prints each float in its shortest round-trip
// form, so equal strings mean bit-equal floats. The gate verdicts at the
// default bounds pin which presets serve SP.C analytically.
func TestFitParity(t *testing.T) {
	if testing.Short() {
		t.Skip("fits anchors by simulation")
	}
	const program, class = "SP", workload.C
	for _, c := range []struct {
		name string
		want experiments.DeclineReason
	}{
		{"IntelUMA8", ""},
		{"IntelNUMA24", experiments.DeclineResidual},
		{"AMDNUMA48", experiments.DeclineResidual},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := machine.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			r := experiments.NewRunner(workload.Tuning{RefScale: 0.02})

			refit := New(r)
			plan := experiments.AnchorPlan(spec)
			for _, n := range plan {
				if _, err := refit.Predict(ctx, spec, program, class, n); err != nil {
					t.Fatal(err)
				}
			}
			entry, ok := refit.fits[fitKey{spec.Name, program, class, refit.Scale()}]
			if !ok {
				t.Fatalf("no fit after Predict fallbacks at every anchor %v", plan)
			}

			warmed, err := New(r).Warm(ctx, spec, program, class)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := r.FitPlan(ctx, spec, program, class, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fig, err := r.ModelVsMeasurement(ctx, spec, program, class, plan, core.Options{})
			if err != nil {
				t.Fatal(err)
			}

			want := fmt.Sprintf("%#v", warmed)
			for what, got := range map[string]*experiments.Fit{
				"refitFromCache":     entry.fit,
				"FitPlan":            &planned,
				"ModelVsMeasurement": &fig.Fit,
			} {
				if s := fmt.Sprintf("%#v", *got); s != want {
					t.Errorf("%s fit differs from Warm's:\n got %s\nwant %s", what, s, want)
				}
			}
			if fmt.Sprint(warmed.Anchors) != fmt.Sprint(plan) {
				t.Errorf("anchors %v, want the plan %v", warmed.Anchors, plan)
			}
			if got := warmed.Gate(DefaultMinR2, DefaultMaxResidual); got != c.want {
				t.Errorf("gate at the defaults = %q, want %q (R2 %.3f, residual %.3f)", got, c.want, warmed.R2, warmed.Residual)
			}
			if math.IsNaN(warmed.Residual) {
				t.Error("residual is NaN")
			}
		})
	}
}
