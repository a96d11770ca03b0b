package stats

import (
	"math"
	"sort"
)

// CCDFPoint is one point of an empirical complementary cumulative
// distribution function: the probability that a sample strictly exceeds X.
type CCDFPoint struct {
	X float64
	P float64
}

// CCDF computes the empirical complementary CDF P(sample > x) at each
// distinct sample value, sorted by increasing X. This is the quantity the
// paper plots in Fig. 4 (P(#requested cache lines > x)).
func CCDF(samples []float64) []CCDFPoint {
	if len(samples) == 0 {
		return nil
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var pts []CCDFPoint
	i := 0
	for i < len(sorted) {
		x := sorted[i]
		j := i
		for j < len(sorted) && sorted[j] == x {
			j++
		}
		// Number of samples strictly greater than x.
		greater := len(sorted) - j
		pts = append(pts, CCDFPoint{X: x, P: float64(greater) / n})
		i = j
	}
	return pts
}

// TailFit is a least-squares power-law fit of the distribution tail:
// log P(X > x) = -Alpha*log(x) + C for x >= Xmin. A heavy (long) tail shows
// up as a straight line on the log-log CCDF; R2 close to 1 over a long x
// range indicates strong burstiness.
type TailFit struct {
	Alpha float64 // magnitude of the log-log slope (positive for a decaying tail)
	C     float64 // intercept in log10 space
	R2    float64
	Xmin  float64
	N     int // number of CCDF points used
}

// FitTail fits a power law to the CCDF tail for x >= xmin. Points with zero
// probability (the final sample) are skipped since log(0) is undefined.
// It returns ErrInsufficientData when fewer than two usable points remain.
func FitTail(ccdf []CCDFPoint, xmin float64) (TailFit, error) {
	var lx, lp []float64
	for _, pt := range ccdf {
		if pt.X < xmin || pt.X <= 0 || pt.P <= 0 {
			continue
		}
		lx = append(lx, math.Log10(pt.X))
		lp = append(lp, math.Log10(pt.P))
	}
	if len(lx) < 2 {
		return TailFit{}, ErrInsufficientData
	}
	fit, err := FitLinear(lx, lp)
	if err != nil {
		return TailFit{}, err
	}
	return TailFit{
		Alpha: -fit.Slope,
		C:     fit.Intercept,
		R2:    fit.R2,
		Xmin:  xmin,
		N:     len(lx),
	}, nil
}

// Hurst estimates the Hurst exponent of a time series using the classical
// rescaled-range (R/S) method: the series is cut into windows of increasing
// size, the average R/S statistic per size is computed, and the exponent is
// the slope of log(R/S) vs log(size). Values near 0.5 indicate no long-range
// dependence; values approaching 1 indicate strong self-similarity (bursty,
// long-tailed traffic in the sense of Leland et al.).
func Hurst(series []float64) (float64, error) {
	if len(series) < 16 {
		return 0, ErrInsufficientData
	}
	var logSize, logRS []float64
	for size := 8; size <= len(series)/2; size *= 2 {
		var rsSum float64
		var windows int
		for start := 0; start+size <= len(series); start += size {
			rs := rescaledRange(series[start : start+size])
			if !math.IsNaN(rs) && rs > 0 {
				rsSum += rs
				windows++
			}
		}
		if windows == 0 {
			continue
		}
		logSize = append(logSize, math.Log(float64(size)))
		logRS = append(logRS, math.Log(rsSum/float64(windows)))
	}
	if len(logSize) < 2 {
		return 0, ErrInsufficientData
	}
	fit, err := FitLinear(logSize, logRS)
	if err != nil {
		return 0, err
	}
	return fit.Slope, nil
}

// rescaledRange computes the R/S statistic of one window.
func rescaledRange(w []float64) float64 {
	m := Mean(w)
	var cum, minC, maxC, ss float64
	for _, x := range w {
		cum += x - m
		if cum < minC {
			minC = cum
		}
		if cum > maxC {
			maxC = cum
		}
		d := x - m
		ss += d * d
	}
	s := math.Sqrt(ss / float64(len(w)))
	if s == 0 {
		return math.NaN()
	}
	return (maxC - minC) / s
}
