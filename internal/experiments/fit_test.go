package experiments

import (
	"math"
	"testing"
)

// TestFitGate covers each verdict of the fit-level confidence rule,
// including the bounds themselves and an anchor past saturation (+Inf
// residual).
func TestFitGate(t *testing.T) {
	for _, c := range []struct {
		name         string
		r2, residual float64
		want         DeclineReason
	}{
		{"good fit answers", 0.99, 0.05, ""},
		{"at both bounds answers", 0.95, 0.10, ""},
		{"low R2", 0.80, 0.05, DeclineLowR2},
		{"low R2 wins over high residual", 0.80, 0.50, DeclineLowR2},
		{"high residual", 0.99, 0.301, DeclineResidual},
		{"anchor past saturation", 0.99, math.Inf(1), DeclineResidual},
	} {
		f := Fit{R2: c.r2, Residual: c.residual}
		if got := f.Gate(0.95, 0.10); got != c.want {
			t.Errorf("%s: Gate(0.95, 0.10) on R2 %v residual %v = %q, want %q", c.name, c.r2, c.residual, got, c.want)
		}
	}
}
