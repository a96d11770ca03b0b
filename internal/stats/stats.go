// Package stats provides the small statistical toolkit used throughout the
// memory-contention study: means and percentiles, linear regression with
// goodness-of-fit, relative-error metrics for model validation, empirical
// distributions (CCDF), heavy-tail fitting for burstiness analysis, and a
// rescaled-range (Hurst) estimator.
//
// The package is dependency-free and operates on plain float64 slices so it
// can be reused by the simulator, the analytical model and the experiment
// harness alike.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an estimator is given fewer samples
// than it mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrMismatchedLengths is returned when paired-sample functions receive
// slices of different lengths.
var ErrMismatchedLengths = errors.New("stats: mismatched slice lengths")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the sample variance (n-1 denominator) of xs, or NaN when
// fewer than two samples are provided.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally and
// returns NaN for an empty sample or out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is the result of an ordinary least-squares fit y = Slope*x +
// Intercept, with its coefficient of determination R2.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 {
	return f.Slope*x + f.Intercept
}

// FitLinear performs an ordinary least-squares regression of y on x. It
// requires at least two points with distinct x values.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, ErrMismatchedLengths
	}
	if len(x) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate regression (all x equal)")
	}
	fit := LinearFit{N: len(x)}
	fit.Slope = (n*sxy - sx*sy) / den
	fit.Intercept = (sy - fit.Slope*sx) / n
	fit.R2 = rSquared(x, y, fit.Slope, fit.Intercept)
	return fit, nil
}

// FitLinearThroughOrigin performs least squares for the model y = Slope*x
// with zero intercept. R2 is computed against the mean-of-y baseline so it
// remains comparable with FitLinear.
func FitLinearThroughOrigin(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, ErrMismatchedLengths
	}
	if len(x) < 1 {
		return LinearFit{}, ErrInsufficientData
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate regression (all x zero)")
	}
	fit := LinearFit{N: len(x), Slope: sxy / sxx}
	fit.R2 = rSquared(x, y, fit.Slope, 0)
	return fit, nil
}

// rSquared computes the coefficient of determination for the line
// y = slope*x + intercept against the observations. A perfect fit yields 1;
// a fit no better than predicting mean(y) yields 0. Values can be negative
// for fits worse than the mean baseline.
func rSquared(x, y []float64, slope, intercept float64) float64 {
	my := Mean(y)
	var ssRes, ssTot float64
	for i := range x {
		r := y[i] - (slope*x[i] + intercept)
		ssRes += r * r
		d := y[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RelativeErrors returns |pred-meas|/|meas| element-wise. Measurements equal
// to zero yield an error of 0 when the prediction is also zero, and +Inf
// otherwise.
func RelativeErrors(pred, meas []float64) ([]float64, error) {
	if len(pred) != len(meas) {
		return nil, ErrMismatchedLengths
	}
	out := make([]float64, len(pred))
	for i := range pred {
		if meas[i] == 0 {
			if pred[i] == 0 {
				out[i] = 0
			} else {
				out[i] = math.Inf(1)
			}
			continue
		}
		out[i] = math.Abs(pred[i]-meas[i]) / math.Abs(meas[i])
	}
	return out, nil
}

// MeanRelativeError returns the average of RelativeErrors — the validation
// metric the paper reports (5–14% across machines).
func MeanRelativeError(pred, meas []float64) (float64, error) {
	re, err := RelativeErrors(pred, meas)
	if err != nil {
		return 0, err
	}
	if len(re) == 0 {
		return 0, ErrInsufficientData
	}
	return Mean(re), nil
}

// MaxRelativeError returns the largest element of RelativeErrors.
func MaxRelativeError(pred, meas []float64) (float64, error) {
	re, err := RelativeErrors(pred, meas)
	if err != nil {
		return 0, err
	}
	if len(re) == 0 {
		return 0, ErrInsufficientData
	}
	max := re[0]
	for _, e := range re[1:] {
		if e > max {
			max = e
		}
	}
	return max, nil
}
