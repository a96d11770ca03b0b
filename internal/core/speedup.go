package core

// Speedup analysis: the authors' companion work ([26] in the paper) uses
// the contention model to determine the speedup of a parallel program and
// the core count that maximizes it. With C(n) the total cycles summed over
// threads and the threads balanced (the paper's protocol), the wall-clock
// time on n cores is approximately C(n)/n, so
//
//	S(n) = C(1) / (C(n)/n) = n / (1 + ω(n))
//
// — contention directly divides the ideal linear speedup. Saturating
// contention (ω growing faster than linearly in n) makes S(n) peak at a
// finite core count; OptimalCores locates that peak.

// Speedup predicts S(n) = n / (1 + ω(n)) from the fitted model.
func (m Model) Speedup(n int) float64 {
	om := m.Omega(n)
	den := 1 + om
	if den <= 0 {
		// Positive cache effects (ω < -1 cannot happen with positive
		// cycles; guard regardless).
		return float64(n)
	}
	return float64(n) / den
}

// OptimalCores returns the core count in 1..maxCores with the highest
// predicted speedup, and that speedup. When contention keeps growing slower
// than linearly the optimum is simply maxCores.
func (m Model) OptimalCores(maxCores int) (cores int, speedup float64) {
	cores, speedup = 1, m.Speedup(1)
	for n := 2; n <= maxCores; n++ {
		if s := m.Speedup(n); s > speedup {
			cores, speedup = n, s
		}
	}
	return cores, speedup
}

// SpeedupFromMeasurements computes measured speedups n/(1+ω(n)) from a
// sweep, for model validation. The measurement at n=1 is the baseline; core
// counts without a baseline return nil.
func SpeedupFromMeasurements(sweep []Measurement) []float64 {
	var c1 float64
	for _, m := range sweep {
		if m.Cores == 1 {
			c1 = m.Cycles
			break
		}
	}
	if c1 == 0 {
		return nil
	}
	out := make([]float64, len(sweep))
	for i, m := range sweep {
		out[i] = float64(m.Cores) * c1 / m.Cycles
	}
	return out
}
