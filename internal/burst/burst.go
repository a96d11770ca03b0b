// Package burst analyzes the burstiness of off-chip memory traffic from
// windowed miss counts (sim.Result.MissWindows), reproducing the paper's
// Fig. 4 methodology: the distribution of burst sizes (number of requested cache
// lines) is plotted as a log-log CCDF, and a long (power-law-like) tail
// marks bursty traffic while its absence marks the saturated, non-bursty
// traffic of large problem sizes.
//
// The same machinery characterizes any arrival process, not just miss
// streams: Bin folds raw event offsets into the windowed form, and CV2 /
// IndexOfDispersion quantify burstiness in the gap and count domains
// (both 1 for Poisson arrivals). internal/load uses these to verify that
// the traffic it offers to a server has the burstiness it was configured
// to generate.
package burst

import (
	"errors"
	"sort"

	"repro/internal/stats"
)

// DefaultWindowMicros is the paper's LLC-miss sampling period (section
// III-B2).
const DefaultWindowMicros = 5

// WindowCycles converts a sampling window of micros microseconds into
// cycles of a clockGHz clock, truncating toward zero.
func WindowCycles(micros, clockGHz float64) uint64 {
	return uint64(micros * clockGHz * 1000)
}

// Burst is a maximal run of consecutive non-empty sampling windows.
type Burst struct {
	// StartWindow is the index of the first window of the run.
	StartWindow int
	// Windows is the run length.
	Windows int
	// Lines is the total number of cache lines requested during the run —
	// the paper's burst size.
	Lines uint64
}

// Extract segments windowed miss counts into bursts.
func Extract(windows []uint64) []Burst {
	var bursts []Burst
	var cur *Burst
	for i, c := range windows {
		if c == 0 {
			cur = nil
			continue
		}
		if cur == nil {
			bursts = append(bursts, Burst{StartWindow: i})
			cur = &bursts[len(bursts)-1]
		}
		cur.Windows++
		cur.Lines += c
	}
	return bursts
}

// Sizes returns the burst sizes in cache lines as float64s, ready for CCDF
// analysis.
func Sizes(bursts []Burst) []float64 {
	out := make([]float64, len(bursts))
	for i, b := range bursts {
		out[i] = float64(b.Lines)
	}
	return out
}

// Analysis summarizes the burstiness of one run's traffic.
type Analysis struct {
	// CCDF is P(BurstSize > x) over burst sizes in cache lines (Fig. 4's
	// y-axis over its x-axis).
	CCDF []stats.CCDFPoint
	// Tail is the power-law fit of the CCDF for x >= TailXmin.
	Tail stats.TailFit
	// TailXmin is the tail cutoff used (the paper eyeballs linearity beyond
	// ~50 lines; we fit from the 10th size percentile or 10 lines,
	// whichever is larger).
	TailXmin float64
	// Bursts is the number of bursts.
	Bursts int
	// MaxLines is the largest burst.
	MaxLines uint64
	// TotalLines is the total traffic.
	TotalLines uint64
	// NonEmptyFraction is the fraction of windows with at least one miss.
	NonEmptyFraction float64
	// MeanLines is the mean burst size.
	MeanLines float64
}

// ErrNoTraffic is returned when there are no misses to analyze.
var ErrNoTraffic = errors.New("burst: no off-chip traffic recorded")

// Analyze computes the burstiness profile of windowed miss counts.
func Analyze(windows []uint64) (Analysis, error) {
	bursts := Extract(windows)
	if len(bursts) == 0 {
		return Analysis{}, ErrNoTraffic
	}
	sizes := Sizes(bursts)
	a := Analysis{
		CCDF:   stats.CCDF(sizes),
		Bursts: len(bursts),
	}
	nonEmpty := 0
	for _, c := range windows {
		if c > 0 {
			nonEmpty++
		}
		a.TotalLines += c
	}
	if len(windows) > 0 {
		a.NonEmptyFraction = float64(nonEmpty) / float64(len(windows))
	}
	for _, b := range bursts {
		if b.Lines > a.MaxLines {
			a.MaxLines = b.Lines
		}
	}
	a.MeanLines = float64(a.TotalLines) / float64(len(bursts))

	a.TailXmin = stats.Percentile(sizes, 10)
	if a.TailXmin < 10 {
		a.TailXmin = 10
	}
	if tail, err := stats.FitTail(a.CCDF, a.TailXmin); err == nil {
		a.Tail = tail
	}
	return a, nil
}

// Verdict classifies traffic as bursty or non-bursty.
type Verdict uint8

const (
	// NonBursty traffic saturates the memory system: almost every sampling
	// window carries requests (large problem sizes in the paper).
	NonBursty Verdict = iota
	// Bursty traffic is sparse with a long-tailed burst-size distribution
	// (small problem sizes).
	Bursty
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if v == Bursty {
		return "bursty"
	}
	return "non-bursty"
}

// Classify applies the paper's observation as a decision rule: traffic is
// non-bursty when the memory system is busy in most sampling windows
// ("there are no significant time intervals without memory requests"), and
// bursty otherwise.
func (a Analysis) Classify() Verdict {
	if a.NonEmptyFraction >= 0.5 {
		return NonBursty
	}
	return Bursty
}

// ErrTooFewSamples is returned by the arrival-process estimators when the
// sample cannot support the statistic (CV² needs at least two
// inter-arrival gaps; dispersion needs at least two windows).
var ErrTooFewSamples = errors.New("burst: too few samples for estimator")

// Bin counts event offsets into fixed-width windows, the same windowed
// representation Extract and Analyze consume. Offsets and window share a
// unit (the caller's choice — seconds for wall-clock arrivals, cycles for
// simulated miss streams); offsets need not be sorted. Negative offsets
// and a non-positive window yield no bins. The last bin is the one
// containing the largest offset, so trailing silence is not represented —
// callers that care about it append empty bins themselves.
func Bin(offsets []float64, window float64) []uint64 {
	if window <= 0 {
		return nil
	}
	maxIdx := -1
	for _, off := range offsets {
		if off < 0 {
			continue
		}
		if i := int(off / window); i > maxIdx {
			maxIdx = i
		}
	}
	if maxIdx < 0 {
		return nil
	}
	bins := make([]uint64, maxIdx+1)
	for _, off := range offsets {
		if off < 0 {
			continue
		}
		bins[int(off/window)]++
	}
	return bins
}

// Interarrivals returns the gaps between consecutive sorted offsets. The
// input is copied and sorted, so unsorted arrival logs are accepted; n
// offsets yield n-1 gaps.
func Interarrivals(offsets []float64) []float64 {
	if len(offsets) < 2 {
		return nil
	}
	sorted := make([]float64, len(offsets))
	copy(sorted, offsets)
	sort.Float64s(sorted)
	gaps := make([]float64, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		gaps[i-1] = sorted[i] - sorted[i-1]
	}
	return gaps
}

// CV2 returns the squared coefficient of variation Var(x)/Mean(x)² of a
// sample — the burstiness statistic of an arrival process applied to its
// inter-arrival gaps. A Poisson process has CV² = 1, a deterministic
// (constant-rate) process 0, and burst-modulated (MMPP-style) processes
// exceed 1. It returns ErrTooFewSamples below two samples and an error
// for a zero-mean sample (no time elapses between any arrivals).
func CV2(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrTooFewSamples
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0, errors.New("burst: zero-mean sample has no coefficient of variation")
	}
	return stats.Variance(xs) / (m * m), nil
}

// IndexOfDispersion returns Var(N)/Mean(N) over windowed event counts —
// the count-domain companion of CV2. A Poisson process scores 1 at every
// window size; values well above 1 mark bursty, correlated arrivals. It
// returns ErrTooFewSamples below two windows and for all-empty windows.
func IndexOfDispersion(windows []uint64) (float64, error) {
	if len(windows) < 2 {
		return 0, ErrTooFewSamples
	}
	xs := make([]float64, len(windows))
	total := uint64(0)
	for i, c := range windows {
		xs[i] = float64(c)
		total += c
	}
	if total == 0 {
		return 0, ErrNoTraffic
	}
	return stats.Variance(xs) / stats.Mean(xs), nil
}
