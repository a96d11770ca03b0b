package core

import (
	"math"
	"testing"
)

// fittedTestModel builds a model with a known contention curve.
func fittedTestModel(t *testing.T) Model {
	t.Helper()
	r, mu, l := 1e6, 0.02, 0.002
	meas := synthSingle(r, mu, l, []int{1, 4})
	f, err := FitSingle(meas)
	if err != nil {
		t.Fatal(err)
	}
	return Model{
		Kind: NUMA, Sockets: 1, CoresPerSocket: 8,
		Single: f, C1: f.C(1), RefMisses: r,
	}
}

func TestSpeedupIdentity(t *testing.T) {
	m := fittedTestModel(t)
	if s := m.Speedup(1); math.Abs(s-1) > 1e-9 {
		t.Errorf("S(1) = %v, want 1", s)
	}
	// S(n) = n/(1+omega(n)) by definition.
	for n := 2; n <= 8; n++ {
		want := float64(n) / (1 + m.Omega(n))
		if got := m.Speedup(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("S(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSpeedupBelowLinearUnderContention(t *testing.T) {
	m := fittedTestModel(t)
	for n := 2; n <= 8; n++ {
		if s := m.Speedup(n); s >= float64(n) {
			t.Errorf("S(%d) = %v should be sublinear under contention", n, s)
		}
	}
}

func TestOptimalCoresPeaksBeforeSaturation(t *testing.T) {
	// mu/L = 10: the M/M/1 model diverges at n=10, so speedup must peak
	// strictly before that.
	r, mu, l := 1e6, 0.02, 0.002
	f, err := FitSingle(synthSingle(r, mu, l, []int{1, 4}))
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Kind: NUMA, Sockets: 1, CoresPerSocket: 16, Single: f, C1: f.C(1), RefMisses: r}
	cores, speedup := m.OptimalCores(16)
	if cores >= 10 {
		t.Errorf("optimal cores = %d, must be below the saturation point 10", cores)
	}
	if speedup <= 1 {
		t.Errorf("optimal speedup = %v", speedup)
	}
	// The optimum really is a maximum.
	for n := 1; n <= 16; n++ {
		if s := m.Speedup(n); s > speedup+1e-9 {
			t.Errorf("S(%d) = %v exceeds reported optimum %v", n, s, speedup)
		}
	}
}

func TestSpeedupFromMeasurements(t *testing.T) {
	sweep := []Measurement{
		{Cores: 1, Cycles: 100},
		{Cores: 2, Cycles: 120},
		{Cores: 4, Cycles: 200},
	}
	s := SpeedupFromMeasurements(sweep)
	want := []float64{1, 2 * 100.0 / 120, 4 * 100.0 / 200}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("s[%d] = %v, want %v", i, s[i], want[i])
		}
	}
	if SpeedupFromMeasurements([]Measurement{{Cores: 2, Cycles: 5}}) != nil {
		t.Error("missing baseline should return nil")
	}
}
