package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Oversubscription study: the paper attributes part of its measurement
// variability to oversubscription effects (ratio of threads to cores,
// section V, citing Iancu et al.). This experiment pins the core count and
// varies the thread count instead.
// ---------------------------------------------------------------------------

// OversubPoint is one measurement of the oversubscription study.
type OversubPoint struct {
	Threads     int
	Factor      float64 // threads / cores
	TotalCycles uint64
	SyncStall   uint64
	Makespan    uint64
}

// Oversubscription runs program.class on all cores of the machine with
// thread counts of 1x, 2x and 4x the cores, as one plan.
func (r *Runner) Oversubscription(ctx context.Context, spec machine.Spec, program string, class workload.Class) ([]OversubPoint, error) {
	cores := spec.TotalCores()
	factors := []int{1, 2, 4}
	plan := make([]RunItem, len(factors))
	for i, f := range factors {
		plan[i] = RunItem{Spec: spec, Program: program, Class: class, Cores: cores, Threads: cores * f}
	}
	runs, err := r.RunAll(ctx, plan)
	if err != nil {
		return nil, err
	}
	points := make([]OversubPoint, len(factors))
	for i, res := range runs {
		points[i] = OversubPoint{
			Threads:     plan[i].Threads,
			Factor:      float64(factors[i]),
			TotalCycles: res.TotalCycles,
			SyncStall:   res.SyncStallCycles,
			Makespan:    res.Makespan,
		}
	}
	return points, nil
}

// RenderOversubscription prints the study.
func RenderOversubscription(w io.Writer, spec machine.Spec, program string, class workload.Class, points []OversubPoint) {
	fmt.Fprintf(w, "Oversubscription (%s, %s.%s, %d cores): threads vs cost\n",
		spec.Name, program, class, spec.TotalCores())
	fmt.Fprintf(w, "%8s %8s %16s %16s %14s\n", "threads", "factor", "total cycles", "sync stall", "makespan")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %8.0fx %16d %16d %14d\n",
			p.Threads, p.Factor, p.TotalCycles, p.SyncStall, p.Makespan)
	}
}

// ---------------------------------------------------------------------------
// Sensitivity analysis: how the contention factor responds to the machine
// parameters the white-box model exposes (MSHRs, hop latency, channels) —
// the knobs the paper's conclusions say an extended model should cover.
// ---------------------------------------------------------------------------

// SensitivityPoint is ω at full cores for one machine variant.
type SensitivityPoint struct {
	Label string
	Omega float64
}

// Sensitivity measures program.class contention at full core count across
// parameter variants of the base machine. Each variant keys by its own
// content, so a variant equal to the base machine shares its runs.
func (r *Runner) Sensitivity(ctx context.Context, spec machine.Spec, program string, class workload.Class) ([]SensitivityPoint, error) {
	variants := []struct {
		label  string
		mutate func(*machine.Spec)
	}{
		{"baseline", func(*machine.Spec) {}},
		{"MSHRs/2", func(s *machine.Spec) { s.MSHRs = max(1, s.MSHRs/2) }},
		{"MSHRsx2", func(s *machine.Spec) { s.MSHRs *= 2 }},
		{"channels+1", func(s *machine.Spec) { s.MC.Channels++ }},
		{"hopx2", func(s *machine.Spec) { s.HopLatency *= 2 }},
		{"FCFS", func(s *machine.Spec) { s.MC.Discipline = 0 }},
		{"prefetch", func(s *machine.Spec) {
			// Next-line prefetch at the last level.
			s.Levels[len(s.Levels)-1].NextLinePrefetch = true
		}},
	}
	// One plan: each variant's single-core baseline and full-machine run.
	plan := make([]RunItem, 0, 2*len(variants))
	for _, v := range variants {
		s := spec
		// A Spec copy still shares the Levels backing array; clone it so a
		// mutator writing a level (prefetch) leaves the base spec intact.
		s.Levels = append([]machine.CacheLevel(nil), spec.Levels...)
		v.mutate(&s)
		plan = append(plan,
			RunItem{Spec: s, Program: program, Class: class, Cores: 1},
			RunItem{Spec: s, Program: program, Class: class, Cores: s.TotalCores()})
	}
	runs, err := r.RunAll(ctx, plan)
	if err != nil {
		return nil, err
	}
	points := make([]SensitivityPoint, len(variants))
	for i, v := range variants {
		base, full := runs[2*i], runs[2*i+1]
		points[i] = SensitivityPoint{Label: v.label,
			Omega: core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))}
	}
	return points, nil
}

// RenderSensitivity prints the variants.
func RenderSensitivity(w io.Writer, spec machine.Spec, program string, class workload.Class, points []SensitivityPoint) {
	fmt.Fprintf(w, "Sensitivity (%s, %s.%s, n=%d): ω under parameter variants\n",
		spec.Name, program, class, spec.TotalCores())
	for _, p := range points {
		fmt.Fprintf(w, "  %-12s ω = %6.2f\n", p.Label, p.Omega)
	}
}

// ---------------------------------------------------------------------------
// Speedup analysis (the companion work [26]): measured and model-predicted
// speedup curves, optimum core count.
// ---------------------------------------------------------------------------

// SpeedupData compares measured and predicted speedups.
type SpeedupData struct {
	Machine      string
	Program      string
	Class        workload.Class
	Cores        []int
	Measured     []float64
	Predicted    []float64
	OptimalCores int
	OptimalS     float64
}

// SpeedupStudy fits the contention model from the paper's input plan and
// compares predicted speedups n/(1+ω(n)) against the measured sweep.
func (r *Runner) SpeedupStudy(ctx context.Context, spec machine.Spec, program string, class workload.Class, coreCounts []int) (SpeedupData, error) {
	sweepWait := r.SweepAsync(ctx, spec, program, class, coreCounts)
	fit, err := r.FitPlan(ctx, spec, program, class, core.Options{})
	if err != nil {
		return SpeedupData{}, err
	}
	sweep, err := sweepWait()
	if err != nil {
		return SpeedupData{}, err
	}
	d := SpeedupData{Machine: spec.Name, Program: program, Class: class}
	d.Measured = core.SpeedupFromMeasurements(sweep)
	for _, m := range sweep {
		d.Cores = append(d.Cores, m.Cores)
		d.Predicted = append(d.Predicted, fit.Model.Speedup(m.Cores))
	}
	d.OptimalCores, d.OptimalS = fit.Model.OptimalCores(spec.TotalCores())
	return d, nil
}

// RenderSpeedup prints the comparison.
func RenderSpeedup(w io.Writer, d SpeedupData) {
	fmt.Fprintf(w, "Speedup (%s, %s.%s): measured vs model; model optimum %d cores (S=%.1f)\n",
		d.Machine, d.Program, d.Class, d.OptimalCores, d.OptimalS)
	fmt.Fprintf(w, "%6s %12s %12s\n", "cores", "measured S", "model S")
	for i, n := range d.Cores {
		fmt.Fprintf(w, "%6d %12.2f %12.2f\n", n, d.Measured[i], d.Predicted[i])
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// White-box model validation: the §VI extension predicts contention from
// machine parameters plus a 1-core profile — no regression fitting. Compare
// it against the measured sweep and the fitted model.
// ---------------------------------------------------------------------------

// WhiteBoxData compares white-box predictions against measurement.
type WhiteBoxData struct {
	Machine     string
	Program     string
	Class       workload.Class
	Cores       []int
	Measured    []float64 // measured omega
	WhiteBox    []float64 // white-box omega
	MeanRelErr  float64   // on C(n)
	DepFraction float64
	ProfileWork uint64
	ProfileMiss uint64
}

// WhiteBoxStudy builds the workload profile from the 1-core run and
// validates the parameter-derived model over the sweep.
func (r *Runner) WhiteBoxStudy(ctx context.Context, spec machine.Spec, program string, class workload.Class, coreCounts []int) (WhiteBoxData, error) {
	sweepWait := r.SweepAsync(ctx, spec, program, class, coreCounts)
	base, err := r.Run(ctx, spec, program, class, 1)
	if err != nil {
		return WhiteBoxData{}, err
	}
	dep := depFraction(program, class, r.Tuning)
	profile := core.ProfileFromCounters(base.WorkCycles, base.LLCMisses, dep)
	wb, err := core.NewWhiteBox(spec, profile)
	if err != nil {
		return WhiteBoxData{}, err
	}
	sweep, err := sweepWait()
	if err != nil {
		return WhiteBoxData{}, err
	}
	d := WhiteBoxData{
		Machine: spec.Name, Program: program, Class: class,
		DepFraction: dep, ProfileWork: base.WorkCycles, ProfileMiss: base.LLCMisses,
	}
	var relSum float64
	var c1 float64
	for _, m := range sweep {
		if m.Cores == 1 {
			c1 = m.Cycles
		}
	}
	for _, m := range sweep {
		d.Cores = append(d.Cores, m.Cores)
		d.Measured = append(d.Measured, core.Omega(m.Cycles, c1))
		d.WhiteBox = append(d.WhiteBox, wb.Omega(m.Cores))
		pred := wb.C(m.Cores)
		diff := pred - m.Cycles
		if diff < 0 {
			diff = -diff
		}
		relSum += diff / m.Cycles
	}
	d.MeanRelErr = relSum / float64(len(sweep))
	return d, nil
}

// depFraction measures the dependent-reference fraction of a workload by
// draining one thread's stream.
func depFraction(program string, class workload.Class, tune workload.Tuning) float64 {
	wl, err := workload.NewTuned(program, class, workload.Tuning{RefScale: tune.RefScale * 0.25})
	if err != nil {
		return 0
	}
	s := wl.Streams(1)[0]
	var refs, deps float64
	for run := s.Next(); len(run) > 0; run = s.Next() {
		refs += float64(len(run))
		for _, ref := range run {
			if ref.Dep {
				deps++
			}
		}
	}
	if refs == 0 {
		return 0
	}
	return deps / refs
}

// RenderWhiteBox prints the comparison.
func RenderWhiteBox(w io.Writer, d WhiteBoxData) {
	fmt.Fprintf(w, "White-box model (%s, %s.%s): parameter-derived, no fitting; MRE %.1f%%\n",
		d.Machine, d.Program, d.Class, 100*d.MeanRelErr)
	fmt.Fprintf(w, "profile: W=%d cycles, r=%d misses, dep fraction %.2f\n",
		d.ProfileWork, d.ProfileMiss, d.DepFraction)
	fmt.Fprintf(w, "%6s %12s %12s\n", "cores", "measured ω", "whitebox ω")
	for i, n := range d.Cores {
		fmt.Fprintf(w, "%6d %12.3f %12.3f\n", n, d.Measured[i], d.WhiteBox[i])
	}
}
