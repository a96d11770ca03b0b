package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCCDFBasic(t *testing.T) {
	// Samples: 1,1,2,3 -> P(>1)=0.5, P(>2)=0.25, P(>3)=0.
	pts := CCDF([]float64{1, 1, 2, 3})
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	want := []CCDFPoint{{1, 0.5}, {2, 0.25}, {3, 0}}
	for i, w := range want {
		if pts[i].X != w.X || !almostEqual(pts[i].P, w.P, 1e-12) {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], w)
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := CCDF(nil); pts != nil {
		t.Errorf("CCDF(nil) = %v, want nil", pts)
	}
}

// Property: CCDF probabilities are non-increasing in X, within [0,1), and the
// final point has probability 0.
func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pts := CCDF(xs)
		if len(pts) == 0 {
			return false
		}
		if pts[len(pts)-1].P != 0 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X {
				return false
			}
			if pts[i].P > pts[i-1].P {
				return false
			}
		}
		for _, p := range pts {
			if p.P < 0 || p.P >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitTailParetoRecovery(t *testing.T) {
	// Draw from a Pareto distribution with alpha = 1.5; the CCDF tail slope
	// in log-log space should be about -1.5.
	rng := rand.New(rand.NewSource(42))
	alpha := 1.5
	samples := make([]float64, 20000)
	for i := range samples {
		u := rng.Float64()
		samples[i] = math.Pow(1-u, -1/alpha)
	}
	ccdf := CCDF(samples)
	fit, err := FitTail(ccdf, 2)
	if err != nil {
		t.Fatalf("FitTail: %v", err)
	}
	if !almostEqual(fit.Alpha, alpha, 0.2) {
		t.Errorf("alpha = %v, want ~%v", fit.Alpha, alpha)
	}
	if fit.R2 < 0.98 {
		t.Errorf("R2 = %v, want > 0.98 for a true power law", fit.R2)
	}
}

func TestFitTailExponentialIsNotPowerLaw(t *testing.T) {
	// An exponential distribution has a short tail: the log-log CCDF bends
	// downward, so the linear fit is poorer and the fitted slope steeper over
	// the deep tail than a Pareto with matching body.
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = rng.ExpFloat64() + 1
	}
	ccdf := CCDF(samples)
	fit, err := FitTail(ccdf, 2)
	if err != nil {
		t.Fatalf("FitTail: %v", err)
	}
	if fit.Alpha < 2 {
		t.Errorf("exponential tail fitted alpha = %v, expected steep (>2)", fit.Alpha)
	}
}

func TestFitTailInsufficient(t *testing.T) {
	ccdf := CCDF([]float64{1, 2})
	if _, err := FitTail(ccdf, 10); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v, want ErrInsufficientData", err)
	}
}

func TestHurstWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 4096)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	h, err := Hurst(series)
	if err != nil {
		t.Fatalf("Hurst: %v", err)
	}
	if h < 0.35 || h > 0.68 {
		t.Errorf("white-noise Hurst = %v, want ~0.5", h)
	}
}

func TestHurstPersistentSeries(t *testing.T) {
	// A long-memory series built from aggregated heavy-tailed on/off periods
	// should have H well above the white-noise estimate.
	rng := rand.New(rand.NewSource(9))
	var series []float64
	state := 0.0
	for len(series) < 4096 {
		// Pareto-distributed run lengths produce long-range dependence.
		runLen := int(math.Pow(1-rng.Float64(), -1/1.2))
		if runLen > 512 {
			runLen = 512
		}
		if runLen < 1 {
			runLen = 1
		}
		for i := 0; i < runLen && len(series) < 4096; i++ {
			series = append(series, state)
		}
		if state == 0 {
			state = 1
		} else {
			state = 0
		}
	}
	h, err := Hurst(series)
	if err != nil {
		t.Fatalf("Hurst: %v", err)
	}
	if h < 0.6 {
		t.Errorf("persistent series Hurst = %v, want > 0.6", h)
	}
}

func TestHurstInsufficient(t *testing.T) {
	if _, err := Hurst(make([]float64, 4)); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("err = %v", err)
	}
}

// Property: CCDF X values are exactly the distinct sample values.
func TestCCDFDistinctValues(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		uniq := map[float64]bool{}
		for i, v := range raw {
			xs[i] = float64(v)
			uniq[float64(v)] = true
		}
		pts := CCDF(xs)
		if len(pts) != len(uniq) {
			return false
		}
		var keys []float64
		for k := range uniq {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		for i, k := range keys {
			if pts[i].X != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
