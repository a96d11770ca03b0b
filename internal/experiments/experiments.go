package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Table II: normalized increase in number of cycles for small (W) and large
// (C) problem sizes at half and all cores on each machine.
// ---------------------------------------------------------------------------

// TableIICell is one entry of Table II: ω(n) for a program/size on one
// machine at one core count.
type TableIICell struct {
	Machine string
	Program string
	Size    workload.Class
	Cores   int
	Omega   float64
}

// TableIIData holds the full table.
type TableIIData struct {
	Cells []TableIICell
}

// tableIIPrograms lists the five HPC dwarfs in the paper's row order.
var tableIIPrograms = []string{"EP", "IS", "FT", "CG", "SP"}

// TableII measures the normalized cycle increase ω(n) = (C(n)-C(1))/C(1)
// for the five dwarfs at small (W) and large (C) sizes, with n at half and
// all cores of each machine. The whole machine×size×program×cores matrix
// is one measurement plan, submitted at once and executed with up to Jobs
// concurrent simulations.
func (r *Runner) TableII(ctx context.Context, specs []machine.Spec) (TableIIData, error) {
	// cellAt maps each output cell to its run and 1-core baseline in the
	// plan, so results assemble in the paper's row order regardless of
	// execution interleaving.
	type cellAt struct {
		cell            TableIICell
		baseIdx, runIdx int
	}
	var plan []RunItem
	var cells []cellAt
	for _, spec := range specs {
		half := spec.TotalCores() / 2
		all := spec.TotalCores()
		for _, size := range []workload.Class{workload.W, workload.C} {
			for _, prog := range tableIIPrograms {
				baseIdx := len(plan)
				plan = append(plan, RunItem{Spec: spec, Program: prog, Class: size, Cores: 1})
				for _, n := range []int{half, all} {
					cells = append(cells, cellAt{
						cell:    TableIICell{Machine: spec.Name, Program: prog, Size: size, Cores: n},
						baseIdx: baseIdx,
						runIdx:  len(plan),
					})
					plan = append(plan, RunItem{Spec: spec, Program: prog, Class: size, Cores: n})
				}
			}
		}
	}
	results, err := r.RunAll(ctx, plan)
	if err != nil {
		return TableIIData{}, err
	}
	var data TableIIData
	for _, c := range cells {
		c.cell.Omega = core.Omega(
			float64(results[c.runIdx].TotalCycles),
			float64(results[c.baseIdx].TotalCycles))
		data.Cells = append(data.Cells, c.cell)
	}
	return data, nil
}

// Cell finds an entry.
func (d TableIIData) Cell(machineName, program string, size workload.Class, cores int) (TableIICell, bool) {
	for _, c := range d.Cells {
		if c.Machine == machineName && c.Program == program && c.Size == size && c.Cores == cores {
			return c, true
		}
	}
	return TableIICell{}, false
}

// ---------------------------------------------------------------------------
// Fig. 3: CG.C total/stall/work cycles and LLC misses vs number of cores.
// ---------------------------------------------------------------------------

// Fig3Data is the four series of Fig. 3 for one machine.
type Fig3Data struct {
	Machine string
	Cores   []int
	Total   []float64
	Stall   []float64
	Work    []float64
	Misses  []float64
}

// Fig3 sweeps CG.C over the given core counts on one machine, submitting
// the sweep as one concurrent plan.
func (r *Runner) Fig3(ctx context.Context, spec machine.Spec, coreCounts []int) (Fig3Data, error) {
	plan := make([]RunItem, len(coreCounts))
	for i, n := range coreCounts {
		plan[i] = RunItem{Spec: spec, Program: "CG", Class: workload.C, Cores: n}
	}
	results, err := r.RunAll(ctx, plan)
	if err != nil {
		return Fig3Data{}, err
	}
	d := Fig3Data{Machine: spec.Name, Cores: coreCounts}
	for _, res := range results {
		d.Total = append(d.Total, float64(res.TotalCycles))
		d.Stall = append(d.Stall, float64(res.StallCycles))
		d.Work = append(d.Work, float64(res.WorkCycles))
		d.Misses = append(d.Misses, float64(res.LLCMisses))
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Table III: problem-size descriptions for CG and x264.
// ---------------------------------------------------------------------------

// ProblemSize is one row of Table III.
type ProblemSize struct {
	Program     string
	Class       workload.Class
	Description string
	Footprint   uint64
}

// TableIII returns the problem-size inventory for CG and x264 (the
// burstiness study's subjects), including the scaled footprints actually
// simulated.
func TableIII() ([]ProblemSize, error) {
	var rows []ProblemSize
	for _, prog := range []string{"CG", "x264"} {
		for _, class := range workload.ClassesFor(prog) {
			w, err := workload.New(prog, class)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ProblemSize{
				Program:     prog,
				Class:       class,
				Description: w.Description(),
				Footprint:   w.FootprintBytes(),
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 4: burstiness of off-chip memory traffic (CCDF of burst sizes) for
// CG and x264 across problem sizes, on the Intel NUMA machine with all
// cores active.
// ---------------------------------------------------------------------------

// Fig4Series is the burstiness profile of one program+class.
type Fig4Series struct {
	Program  string
	Class    workload.Class
	Analysis burst.Analysis
	Verdict  burst.Verdict
}

// Fig4 runs each program+class with all cores active, counting LLC misses
// per 5 µs window, and analyzes burst sizes. The paper uses 24 threads on
// 24 cores of the Intel NUMA machine. The nine subjects are one plan, so
// they run concurrently, cached and journaled like any other runs, and
// the series come back in the paper's order.
func (r *Runner) Fig4(ctx context.Context, spec machine.Spec) ([]Fig4Series, error) {
	// The paper samples every 5 µs of real-machine time. Our machines and
	// problem classes are scaled down by machine.CacheScale, which
	// compresses phase durations by roughly the same factor, so the
	// equivalent sampling window scales with them.
	window := burst.WindowCycles(float64(burst.DefaultWindowMicros)/machine.CacheScale, spec.ClockGHz)
	if window == 0 {
		return nil, fmt.Errorf("experiments: %s clock %g GHz gives a zero-cycle miss window", spec.Name, spec.ClockGHz)
	}
	var plan []RunItem
	for _, subj := range []struct {
		program string
		classes []workload.Class
	}{
		{"CG", []workload.Class{workload.S, workload.W, workload.A, workload.B, workload.C}},
		{"x264", []workload.Class{workload.SimSmall, workload.SimMedium, workload.SimLarge, workload.Native}},
	} {
		for _, class := range subj.classes {
			plan = append(plan, RunItem{Spec: spec, Program: subj.program, Class: class,
				Cores: spec.TotalCores(), MissWindow: window})
		}
	}
	results, err := r.RunAll(ctx, plan)
	if err != nil {
		return nil, err
	}
	series := make([]Fig4Series, len(plan))
	for i, res := range results {
		series[i] = Fig4Series{Program: plan[i].Program, Class: plan[i].Class}
		a, err := burst.Analyze(res.MissWindows)
		if errors.Is(err, burst.ErrNoTraffic) {
			// Fully cached run: report an empty bursty profile.
			series[i].Verdict = burst.Bursty
			continue
		}
		if err != nil {
			return nil, err
		}
		series[i].Analysis, series[i].Verdict = a, a.Classify()
	}
	return series, nil
}

// ---------------------------------------------------------------------------
// Fig. 5 / Fig. 6: measured vs modeled degree of contention ω(n) for a
// high-contention program (CG.C) and a low-contention one (EP.C).
// ---------------------------------------------------------------------------

// ModelFig is one machine's measured-vs-modeled ω(n) comparison.
type ModelFig struct {
	Machine    string
	Program    string
	Class      workload.Class
	Fit        Fit // the anchor fit the modeled curve comes from
	Validation core.Validation
}

// ModelVsMeasurement fits the model from the paper's input plan and
// validates it against a measured sweep. The validation sweep starts
// before the fit-plan runs, so the two overlap (and share their common
// core counts) instead of executing back to back.
func (r *Runner) ModelVsMeasurement(ctx context.Context, spec machine.Spec, program string, class workload.Class, coreCounts []int, opts core.Options) (ModelFig, error) {
	sweepWait := r.SweepAsync(ctx, spec, program, class, coreCounts)
	fit, err := r.FitPlan(ctx, spec, program, class, opts)
	if err != nil {
		return ModelFig{}, err
	}
	sweep, err := sweepWait()
	if err != nil {
		return ModelFig{}, err
	}
	v, err := core.Validate(fit.Model, sweep)
	if err != nil {
		return ModelFig{}, err
	}
	return ModelFig{
		Machine:    spec.Name,
		Program:    program,
		Class:      class,
		Fit:        fit,
		Validation: v,
	}, nil
}

// Fig5 is the high-contention validation (CG.C).
func (r *Runner) Fig5(ctx context.Context, spec machine.Spec, coreCounts []int) (ModelFig, error) {
	return r.ModelVsMeasurement(ctx, spec, "CG", workload.C, coreCounts, core.Options{})
}

// Fig6 is the low-contention validation (EP.C).
func (r *Runner) Fig6(ctx context.Context, spec machine.Spec, coreCounts []int) (ModelFig, error) {
	return r.ModelVsMeasurement(ctx, spec, "EP", workload.C, coreCounts, core.Options{})
}

// ---------------------------------------------------------------------------
// Table IV: goodness-of-fit R² for the linearity of 1/C(n).
// ---------------------------------------------------------------------------

// TableIVCell is one R² entry.
type TableIVCell struct {
	Machine string
	Program string
	Class   workload.Class
	R2      float64
}

// tableIVSubjects lists the paper's Table IV columns.
var tableIVSubjects = []struct {
	Program string
	Class   workload.Class
}{
	{"EP", workload.C},
	{"IS", workload.C},
	{"FT", workload.B},
	{"CG", workload.C},
	{"SP", workload.C},
	{"x264", workload.Native},
}

// TableIV computes the 1/C(n) linearity R² over n = 1..4 on UMA machines
// and n = 1..12 on NUMA machines, as in the paper. All machine×program
// sweeps are submitted up front and collected in table order.
func (r *Runner) TableIV(ctx context.Context, specs []machine.Spec) ([]TableIVCell, error) {
	type pending struct {
		cell TableIVCell
		wait func() ([]core.Measurement, error)
	}
	var waits []pending
	for _, spec := range specs {
		upTo := 12
		if spec.UMA() {
			upTo = 4
		}
		if upTo > spec.CoresPerSocket {
			upTo = spec.CoresPerSocket
		}
		var counts []int
		for n := 1; n <= upTo; n++ {
			counts = append(counts, n)
		}
		for _, subj := range tableIVSubjects {
			waits = append(waits, pending{
				cell: TableIVCell{Machine: spec.Name, Program: subj.Program, Class: subj.Class},
				wait: r.SweepAsync(ctx, spec, subj.Program, subj.Class, counts),
			})
		}
	}
	var cells []TableIVCell
	for _, p := range waits {
		meas, err := p.wait()
		if err != nil {
			return nil, err
		}
		r2, err := core.LinearityR2(meas)
		if err != nil {
			return nil, err
		}
		p.cell.R2 = r2
		cells = append(cells, p.cell)
	}
	return cells, nil
}

// ---------------------------------------------------------------------------
// Ablation A: AMD NUMA fitted with the homogeneous-interconnect assumption
// (three inputs / single ρ) vs the full heterogeneous fit.
// ---------------------------------------------------------------------------

// AblationInputsResult compares the two fits.
type AblationInputsResult struct {
	Machine           string
	HeterogeneousMRE  float64
	HomogeneousMRE    float64
	HeterogeneousRhos []float64
	HomogeneousRhos   []float64
}

// AblationInputs reproduces the paper's observation that assuming
// homogeneous interconnect latencies on the AMD machine degrades accuracy.
func (r *Runner) AblationInputs(ctx context.Context, spec machine.Spec, coreCounts []int) (AblationInputsResult, error) {
	het, err := r.ModelVsMeasurement(ctx, spec, "CG", workload.C, coreCounts, core.Options{})
	if err != nil {
		return AblationInputsResult{}, err
	}
	hom, err := r.ModelVsMeasurement(ctx, spec, "CG", workload.C, coreCounts, core.Options{Homogeneous: true})
	if err != nil {
		return AblationInputsResult{}, err
	}
	return AblationInputsResult{
		Machine:           spec.Name,
		HeterogeneousMRE:  het.Validation.MeanRelErr,
		HomogeneousMRE:    hom.Validation.MeanRelErr,
		HeterogeneousRhos: het.Fit.Model.Rho,
		HomogeneousRhos:   hom.Fit.Model.Rho,
	}, nil
}

// ---------------------------------------------------------------------------
// Ablation B: memory-controller service discipline (FCFS vs FR-FCFS).
// ---------------------------------------------------------------------------

// AblationControllerResult compares contention under the two disciplines.
type AblationControllerResult struct {
	Machine   string
	OmegaFCFS float64
	OmegaFR   float64
	AvgWaitFC float64
	AvgWaitFR float64
	RowHitFC  float64
	RowHitFR  float64
	CoresUsed int
}

// AblationController runs CG.C at one and at all cores under both
// disciplines (the paper lists service discipline among the model
// extensions). The four runs are one plan.
func (r *Runner) AblationController(ctx context.Context, spec machine.Spec) (AblationControllerResult, error) {
	var plan []RunItem
	for _, disc := range []memctrl.Discipline{memctrl.FCFS, memctrl.FRFCFS} {
		s := spec
		s.MC.Discipline = disc
		for _, cores := range []int{1, s.TotalCores()} {
			plan = append(plan, RunItem{Spec: s, Program: "CG", Class: workload.C, Cores: cores})
		}
	}
	runs, err := r.RunAll(ctx, plan)
	if err != nil {
		return AblationControllerResult{}, err
	}
	fcBase, fcFull, frBase, frFull := runs[0], runs[1], runs[2], runs[3]
	res := AblationControllerResult{
		Machine:   spec.Name,
		OmegaFCFS: core.Omega(float64(fcFull.TotalCycles), float64(fcBase.TotalCycles)),
		OmegaFR:   core.Omega(float64(frFull.TotalCycles), float64(frBase.TotalCycles)),
		CoresUsed: spec.TotalCores(),
	}
	res.AvgWaitFC, res.RowHitFC = mcAverages(fcFull)
	res.AvgWaitFR, res.RowHitFR = mcAverages(frFull)
	return res, nil
}

func mcAverages(res sim.Result) (avgWait, rowHit float64) {
	var wait, served, hits float64
	for _, mc := range res.MCStats {
		wait += float64(mc.TotalWait)
		served += float64(mc.Requests)
		hits += float64(mc.RowHits)
	}
	if served == 0 {
		return 0, 0
	}
	return wait / served, hits / served
}

// ---------------------------------------------------------------------------
// Ablation C: open M/M/1 model vs a linear baseline.
// ---------------------------------------------------------------------------

// AblationLinearResult compares the fitted open-queue model against a
// linear baseline built from the same measurements.
type AblationLinearResult struct {
	Machine   string
	OpenMRE   float64
	LinearMRE float64
}

// AblationLinearBaseline fits the paper's open M/M/1 model and a linear
// baseline to the same two points of a single-socket sweep, C(1) and C(c),
// and compares their fit quality over the full sweep. The baseline
// interpolates linearly in n between the two points, so it cannot follow
// the super-linear growth of contention that the open model captures.
func (r *Runner) AblationLinearBaseline(ctx context.Context, spec machine.Spec, program string, class workload.Class) (AblationLinearResult, error) {
	c := spec.CoresPerSocket
	var counts []int
	for n := 1; n <= c; n++ {
		counts = append(counts, n)
	}
	sweep, err := r.Sweep(ctx, spec, program, class, counts)
	if err != nil {
		return AblationLinearResult{}, err
	}
	// Open model from the paper's two-point plan.
	openFit, err := core.FitSingle([]core.Measurement{sweep[0], sweep[len(sweep)-1]})
	if err != nil {
		return AblationLinearResult{}, err
	}
	c1 := sweep[0].Cycles
	cN := sweep[len(sweep)-1].Cycles
	linearC := func(n int) float64 {
		return c1 + (cN-c1)*float64(n-1)/float64(c-1)
	}
	var openPred, linearPred, obs []float64
	for _, m := range sweep {
		openPred = append(openPred, openFit.C(m.Cores))
		linearPred = append(linearPred, linearC(m.Cores))
		obs = append(obs, m.Cycles)
	}
	res := AblationLinearResult{Machine: spec.Name}
	if res.OpenMRE, err = stats.MeanRelativeError(openPred, obs); err != nil {
		return AblationLinearResult{}, err
	}
	if res.LinearMRE, err = stats.MeanRelativeError(linearPred, obs); err != nil {
		return AblationLinearResult{}, err
	}
	return res, nil
}
