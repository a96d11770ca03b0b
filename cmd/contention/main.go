// Command contention fits the paper's analytical model from its anchor
// runs, prints the fit's R², self-residual and the verdict simserved's
// analytical tier would reach, and predicts ω(n) at every core count,
// optionally validating the prediction against a measured sweep.
//
// Usage:
//
//	contention -machine IntelNUMA24 -program CG -class C
//	contention -machine AMDNUMA48 -program SP -class C -validate -step 4
//	contention -machine AMDNUMA48 -program CG -class C -homogeneous
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/viz"
)

func main() {
	var common cli.Common
	var (
		validate    = flag.Bool("validate", false, "also measure a full sweep and report model error")
		step        = flag.Int("step", 2, "core-count step for the validation sweep")
		homogeneous = flag.Bool("homogeneous", false, "fit with the reduced homogeneous-interconnect plan")
		plot        = flag.Bool("plot", false, "render an ASCII chart of the curves")
	)
	common.RegisterMachine("IntelNUMA24")
	common.RegisterWorkload("CG", "C")
	common.RegisterScale()
	common.RegisterJobs()
	common.RegisterVerbose()
	common.RegisterResume()
	flag.Parse()

	spec, err := common.Spec()
	if err != nil {
		fatal(err)
	}
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	r, cleanup, err := common.NewRunner()
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	program, class := common.Program, common.WorkloadClass()
	opts := core.Options{Homogeneous: *homogeneous}
	// -validate fits inside ModelVsMeasurement; the header reads that fit.
	var fig experiments.ModelFig
	if *validate {
		fig, err = r.ModelVsMeasurement(ctx, spec, program, class, experiments.CoarseSweepCounts(spec, *step), opts)
	} else {
		fig.Fit, err = r.FitPlan(ctx, spec, program, class, opts)
	}
	if err != nil {
		cleanup()
		fatal(err)
	}
	fit, m := fig.Fit, fig.Fit.Model

	fmt.Printf("# %s %s.%s — %s model fitted from C(n) at n=%v\n",
		spec.Name, program, class, m.Kind, fit.Anchors)
	fmt.Printf("# single-processor fit: mu/r=%.4g L/r=%.4g R2=%.3f saturation at %.1f cores\n",
		m.Single.MuOverR, m.Single.LOverR, fit.R2, fit.SaturationCores)
	if m.Kind == core.UMA {
		fmt.Printf("# UMA dC/core = %.4g cycles\n", m.DeltaCPerCore)
	} else if len(m.Rho) > 0 {
		fmt.Printf("# NUMA rho = %.4g stall cycles per remote core per miss\n", m.Rho[0])
	}
	verdict := "answers analytically"
	if reason := fit.Gate(model.DefaultMinR2, model.DefaultMaxResidual); reason != "" {
		verdict = "declines " + string(reason)
	}
	fmt.Printf("# anchor residual=%.3f; simserved gate (R2 >= %.2f, residual <= %.2f): %s\n",
		fit.Residual, model.DefaultMinR2, model.DefaultMaxResidual, verdict)

	ch := viz.Chart{Title: "predicted degree of contention", XLabel: "cores", YLabel: "omega"}
	if *validate {
		experiments.RenderModelFig(os.Stdout, fig, "Validation")
		ch.Title = fmt.Sprintf("%s %s.%s: degree of contention", spec.Name, program, class)
		xs := make([]float64, len(fig.Validation.Cores))
		for i, n := range fig.Validation.Cores {
			xs[i] = float64(n)
		}
		ch.Add(viz.Series{Name: "measured", X: xs, Y: fig.Validation.Measured})
		ch.Add(viz.Series{Name: "model", X: xs, Y: fig.Validation.Modeled})
	} else {
		fmt.Printf("%6s %12s\n", "cores", "model ω")
		var xs, ys []float64
		for n := 1; n <= spec.TotalCores(); n++ {
			fmt.Printf("%6d %12.3f\n", n, m.Omega(n))
			xs = append(xs, float64(n))
			ys = append(ys, m.Omega(n))
		}
		ch.Add(viz.Series{Name: "model", X: xs, Y: ys})
	}
	if *plot {
		ch.Render(os.Stdout)
	}
}

func fatal(err error) {
	cli.Fatal("contention", err)
}
