package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one sample should be NaN")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Mean(xs), 5, 1e-12) {
		t.Errorf("mean = %v", Mean(xs))
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, /7.
	if !almostEqual(Variance(xs), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", Variance(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{75, 40},
	}
	for _, c := range cases {
		got := Percentile(xs, c.p)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestFitLinearExact(t *testing.T) {
	// y = 2x + 1 exactly.
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if !almostEqual(fit.Predict(10), 21, 1e-12) {
		t.Errorf("Predict(10) = %v", fit.Predict(10))
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 0; i < 200; i++ {
		xv := float64(i)
		x = append(x, xv)
		y = append(y, 3*xv-5+rng.NormFloat64()*0.5)
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if !almostEqual(fit.Slope, 3, 0.05) {
		t.Errorf("slope = %v, want ~3", fit.Slope)
	}
	if !almostEqual(fit.Intercept, -5, 0.5) {
		t.Errorf("intercept = %v, want ~-5", fit.Intercept)
	}
	if fit.R2 < 0.999 {
		t.Errorf("R2 = %v, want > 0.999", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrMismatchedLengths) {
		t.Errorf("mismatched: err = %v", err)
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("short: err = %v", err)
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestFitLinearThroughOrigin(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{2, 4, 6}
	fit, err := FitLinearThroughOrigin(x, y)
	if err != nil {
		t.Fatalf("FitLinearThroughOrigin: %v", err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || fit.Intercept != 0 {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v", fit.R2)
	}
	if _, err := FitLinearThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero x should error")
	}
}

func TestRSquaredPerfectAndBaseline(t *testing.T) {
	x := []float64{0, 1, 2}
	y := []float64{1, 3, 5}
	if r2 := rSquared(x, y, 2, 1); !almostEqual(r2, 1, 1e-12) {
		t.Errorf("perfect R2 = %v", r2)
	}
	// Constant y, correct constant prediction: R2 = 1 by convention.
	if r2 := rSquared([]float64{1, 2}, []float64{4, 4}, 0, 4); r2 != 1 {
		t.Errorf("constant-correct R2 = %v, want 1", r2)
	}
	// Constant y, wrong prediction: R2 = 0 by convention.
	if r2 := rSquared([]float64{1, 2}, []float64{4, 4}, 0, 5); r2 != 0 {
		t.Errorf("constant-wrong R2 = %v, want 0", r2)
	}
}

func TestRelativeErrorMetrics(t *testing.T) {
	pred := []float64{110, 90, 100}
	meas := []float64{100, 100, 100}
	mre, err := MeanRelativeError(pred, meas)
	if err != nil {
		t.Fatalf("MeanRelativeError: %v", err)
	}
	if !almostEqual(mre, (0.1+0.1+0)/3, 1e-12) {
		t.Errorf("MRE = %v", mre)
	}
	maxre, err := MaxRelativeError(pred, meas)
	if err != nil {
		t.Fatalf("MaxRelativeError: %v", err)
	}
	if !almostEqual(maxre, 0.1, 1e-12) {
		t.Errorf("MaxRE = %v", maxre)
	}
}

func TestRelativeErrorsZeroMeasurement(t *testing.T) {
	re, err := RelativeErrors([]float64{0, 1}, []float64{0, 0})
	if err != nil {
		t.Fatalf("RelativeErrors: %v", err)
	}
	if re[0] != 0 {
		t.Errorf("0/0 relative error = %v, want 0", re[0])
	}
	if !math.IsInf(re[1], 1) {
		t.Errorf("1/0 relative error = %v, want +Inf", re[1])
	}
}

func TestRelativeErrorsMismatch(t *testing.T) {
	if _, err := RelativeErrors([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrMismatchedLengths) {
		t.Errorf("err = %v", err)
	}
}

// Property: for any line y = a*x+b evaluated without noise, FitLinear
// recovers a and b with R2 == 1.
func TestFitLinearRecoversLineProperty(t *testing.T) {
	f := func(a, b float64, seed int64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Keep coefficients in a numerically sane range.
		a = math.Mod(a, 1e3)
		b = math.Mod(b, 1e3)
		rng := rand.New(rand.NewSource(seed))
		var x, y []float64
		for i := 0; i < 10; i++ {
			xv := rng.Float64()*100 - 50
			x = append(x, xv)
			y = append(y, a*xv+b)
		}
		fit, err := FitLinear(x, y)
		if err != nil {
			// Degenerate draw (all x equal) is acceptable.
			return true
		}
		return almostEqual(fit.Slope, a, 1e-6+1e-6*math.Abs(a)) &&
			almostEqual(fit.Intercept, b, 1e-6+1e-6*math.Abs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MeanRelativeError(x, x) == 0 for nonzero x.
func TestMRESelfProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		mre, err := MeanRelativeError(xs, xs)
		return err == nil && mre == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
