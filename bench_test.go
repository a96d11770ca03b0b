// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (section V), one benchmark per artifact:
//
//	BenchmarkTableII          normalized cycle increase, W vs C, 3 machines
//	BenchmarkFig3             CG.C cycle/stall/work/miss series vs cores
//	BenchmarkTableIII         problem-size inventory
//	BenchmarkFig4             burstiness CCDFs for CG and x264
//	BenchmarkFig5             high-contention model validation (CG.C)
//	BenchmarkFig6             low-contention model validation (EP.C)
//	BenchmarkTableIV          1/C(n) linearity goodness-of-fit
//	BenchmarkAblationInputs   AMD heterogeneous vs homogeneous fit
//	BenchmarkAblationController  FCFS vs FR-FCFS memory scheduling
//	BenchmarkAblationLinearBaseline open M/M/1 vs linear baseline
//
// Benchmarks run the workloads at a reduced RefScale so `go test -bench=.`
// completes in minutes; run cmd/experiments with -scale 1 for full
// fidelity. Key result quantities are attached as custom benchmark metrics
// so regressions in the reproduced shapes are visible in benchmark diffs.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// benchTune keeps benchmark runtime moderate while preserving every access
// pattern. The runner caches simulation runs, so b.N iterations beyond the
// first are nearly free.
var benchTune = workload.Tuning{RefScale: 0.15}

// BenchmarkFullRun times the complete Fig. 3 sweep (CG.C, cores 1..8) on
// the 8-core UMA machine at quarter scale. It is a diagnostic under `make
// microbench`; the tracked end-to-end benchmark is perfbench (`make
// bench`). Unlike the artifact benchmarks above it builds a fresh Runner
// every iteration, so b.N iterations re-simulate rather than hit the
// cache — ns/op is honest end-to-end simulation time. The events/sec
// metric is simulated-events-per-second.
func BenchmarkFullRun(b *testing.B) {
	spec := machine.IntelUMA8()
	counts := experiments.FullSweepCounts(spec)
	var events uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(workload.Tuning{RefScale: 0.25})
		if _, err := r.Fig3(context.Background(), spec, counts); err != nil {
			b.Fatal(err)
		}
		// The sweep's runs are now cached: fold in their event counts.
		for _, n := range counts {
			res, err := r.Run(context.Background(), spec, "CG", workload.C, n)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkTableII(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	specs := machine.All()
	var d experiments.TableIIData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = r.TableII(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Attach the headline cells: SP.C and CG.C at full cores per machine.
	for _, spec := range specs {
		if c, ok := d.Cell(spec.Name, "SP", workload.C, spec.TotalCores()); ok {
			b.ReportMetric(c.Omega, "omegaSP.C@"+spec.Name)
		}
		if c, ok := d.Cell(spec.Name, "CG", workload.C, spec.TotalCores()); ok {
			b.ReportMetric(c.Omega, "omegaCG.C@"+spec.Name)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	for i := 0; i < b.N; i++ {
		for _, spec := range machine.All() {
			d, err := r.Fig3(context.Background(), spec, experiments.CoarseSweepCounts(spec, 6))
			if err != nil {
				b.Fatal(err)
			}
			// Work cycles must stay flat while total cycles grow — the
			// paper's observations 1 and 3.
			last := len(d.Total) - 1
			b.ReportMetric(d.Total[last]/d.Total[0], "totalGrowth@"+spec.Name)
			b.ReportMetric(d.Work[last]/d.Work[0], "workGrowth@"+spec.Name)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	// Burstiness study on the paper's machine (Intel NUMA, all cores).
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelNUMA24()
	var series []experiments.Fig4Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.Fig4(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Program == "CG" && (s.Class == workload.S || s.Class == workload.C) {
			b.ReportMetric(s.Analysis.NonEmptyFraction, "busyFrac.CG."+string(s.Class))
		}
	}
}

func benchmarkModelFig(b *testing.B, program string, class workload.Class) {
	r := experiments.NewRunner(benchTune)
	for i := 0; i < b.N; i++ {
		for _, spec := range machine.All() {
			fig, err := r.ModelVsMeasurement(context.Background(), spec, program, class,
				experiments.CoarseSweepCounts(spec, 6), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*fig.Validation.MeanRelErr, "MRE%@"+spec.Name)
		}
	}
}

func BenchmarkFig5(b *testing.B) { benchmarkModelFig(b, "CG", workload.C) }

func BenchmarkFig6(b *testing.B) { benchmarkModelFig(b, "EP", workload.C) }

func BenchmarkTableIV(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	specs := machine.All()
	var cells []experiments.TableIVCell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = r.TableIV(context.Background(), specs)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Program == "CG" || c.Program == "SP" {
			b.ReportMetric(c.R2, "R2."+c.Program+"@"+c.Machine)
		}
	}
}

func BenchmarkAblationInputs(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.AMDNUMA48()
	var res experiments.AblationInputsResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationInputs(context.Background(), spec, experiments.CoarseSweepCounts(spec, 6))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.HeterogeneousMRE, "MRE%.full")
	b.ReportMetric(100*res.HomogeneousMRE, "MRE%.homogeneous")
}

func BenchmarkAblationController(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelNUMA24()
	var res experiments.AblationControllerResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationController(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OmegaFCFS, "omega.fcfs")
	b.ReportMetric(res.OmegaFR, "omega.frfcfs")
}

func BenchmarkAblationLinearBaseline(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelNUMA24()
	var res experiments.AblationLinearResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationLinearBaseline(context.Background(), spec, "CG", workload.C)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.OpenMRE, "MRE%.open")
	b.ReportMetric(100*res.LinearMRE, "MRE%.linear")
}

func BenchmarkSpeedupStudy(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelNUMA24()
	var d experiments.SpeedupData
	var err error
	for i := 0; i < b.N; i++ {
		d, err = r.SpeedupStudy(context.Background(), spec, "CG", workload.C, experiments.CoarseSweepCounts(spec, 6))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.OptimalCores), "optimalCores")
	b.ReportMetric(d.OptimalS, "optimalSpeedup")
}

func BenchmarkOversubscription(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelUMA8()
	for i := 0; i < b.N; i++ {
		if _, err := r.Oversubscription(context.Background(), spec, "CG", workload.C); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensitivity(b *testing.B) {
	r := experiments.NewRunner(benchTune)
	spec := machine.IntelUMA8()
	var points []experiments.SensitivityPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = r.Sensitivity(context.Background(), spec, "CG", workload.C)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Label == "baseline" || p.Label == "channels+1" {
			b.ReportMetric(p.Omega, "omega."+p.Label)
		}
	}
}
