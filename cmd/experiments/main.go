// Command experiments regenerates the paper's evaluation artifacts (Table
// II, Fig. 3, Table III, Fig. 4, Fig. 5, Fig. 6, Table IV and the ablation
// studies) on the simulated testbed.
//
// Usage:
//
//	experiments -run all                 # everything at full fidelity
//	experiments -run fig5 -machine AMDNUMA48 -step 3
//	experiments -run tableII -scale 0.25 # quarter-length workloads
//	experiments -run all -scale 0.25 -jobs 8 -v  # fast path: parallel runs
//	experiments -run fig3 -resume fig3.journal   # survive kills: re-run to finish
//
// Simulations execute on a bounded worker pool (-jobs, default
// GOMAXPROCS) with singleflight deduplication, so runs shared between
// artifacts execute once and output is byte-identical at any -jobs value.
//
// Ctrl-C (or SIGTERM) cancels the sweep promptly: in-flight simulations
// abort within a bounded number of events and the process exits 130.
// With -resume FILE every completed run is journaled as it finishes;
// re-running the same command after a kill replays the journal and
// simulates only the remainder, producing byte-identical output.
//
// Output is the textual form of each table/figure: the same rows and
// series the paper reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

func main() {
	var common cli.Common
	var (
		runWhat = flag.String("run", "all", "experiment: tableII|fig3|tableIII|fig4|fig5|fig6|tableIV|ablations|oversub|sensitivity|speedup|whitebox|all")
		datDir  = flag.String("dat", "", "also write gnuplot-ready .dat files for the figures into this directory")
		jsonDir = flag.String("json", "", "also write machine-readable .json results into this directory")
		step    = flag.Int("step", 1, "core-count step for figure sweeps (1 = every count)")
	)
	common.RegisterMachineAll("all")
	common.RegisterScale()
	common.RegisterJobs()
	common.RegisterVerbose()
	common.RegisterTelemetry()
	common.RegisterResume()
	flag.Parse()

	specs, err := common.Machines()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()

	r, cleanup, err := common.NewRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer cleanup()

	run := func(name string, fn func() error) {
		if *runWhat != "all" && *runWhat != name {
			return
		}
		if err := fn(); err != nil {
			// Run the deferred cleanups (journal close, tracer flush)
			// before exiting; cli.Fatal maps cancellation to exit 130
			// so wrappers can distinguish kill from failure.
			cleanup()
			cli.Fatal(name, err)
		}
		fmt.Println()
	}

	run("tableII", func() error {
		d, err := r.TableII(ctx, specs)
		if err != nil {
			return err
		}
		experiments.RenderTableII(os.Stdout, d, specs)
		if *jsonDir != "" {
			return experiments.WriteJSON(*jsonDir, "tableII", d)
		}
		return nil
	})
	run("fig3", func() error {
		for _, spec := range specs {
			d, err := r.Fig3(ctx, spec, experiments.CoarseSweepCounts(spec, *step))
			if err != nil {
				return err
			}
			experiments.RenderFig3(os.Stdout, d)
			if *datDir != "" {
				if err := experiments.WriteFig3Dat(*datDir, d); err != nil {
					return err
				}
			}
			fmt.Println()
		}
		return nil
	})
	run("tableIII", func() error {
		rows, err := experiments.TableIII()
		if err != nil {
			return err
		}
		experiments.RenderTableIII(os.Stdout, rows)
		return nil
	})
	run("fig4", func() error {
		// The paper's burstiness study runs on the Intel NUMA machine.
		spec := machine.IntelNUMA24()
		series, err := r.Fig4(ctx, spec)
		if err != nil {
			return err
		}
		experiments.RenderFig4(os.Stdout, series)
		if *datDir != "" {
			if err := experiments.WriteFig4Dat(*datDir, series); err != nil {
				return err
			}
		}
		if *jsonDir != "" {
			return experiments.WriteJSON(*jsonDir, "fig4", series)
		}
		return nil
	})
	for _, f := range []struct {
		name, title string
		fit         func(context.Context, machine.Spec, []int) (experiments.ModelFig, error)
	}{{"fig5", "Fig. 5", r.Fig5}, {"fig6", "Fig. 6", r.Fig6}} {
		run(f.name, func() error {
			for _, spec := range specs {
				fig, err := f.fit(ctx, spec, experiments.CoarseSweepCounts(spec, *step))
				if err != nil {
					return err
				}
				experiments.RenderModelFig(os.Stdout, fig, f.title)
				if *datDir != "" {
					if err := experiments.WriteModelFigDat(*datDir, f.name, fig); err != nil {
						return err
					}
				}
				if *jsonDir != "" {
					if err := experiments.WriteJSON(*jsonDir, f.name+"_"+spec.Name, fig); err != nil {
						return err
					}
				}
				fmt.Println()
			}
			return nil
		})
	}
	run("tableIV", func() error {
		cells, err := r.TableIV(ctx, specs)
		if err != nil {
			return err
		}
		experiments.RenderTableIV(os.Stdout, cells, specs)
		return nil
	})
	run("oversub", func() error {
		for _, spec := range specs {
			points, err := r.Oversubscription(ctx, spec, "CG", workload.C)
			if err != nil {
				return err
			}
			experiments.RenderOversubscription(os.Stdout, spec, "CG", workload.C, points)
			fmt.Println()
		}
		return nil
	})
	run("sensitivity", func() error {
		for _, spec := range specs {
			points, err := r.Sensitivity(ctx, spec, "CG", workload.C)
			if err != nil {
				return err
			}
			experiments.RenderSensitivity(os.Stdout, spec, "CG", workload.C, points)
			fmt.Println()
		}
		return nil
	})
	run("speedup", func() error {
		for _, spec := range specs {
			d, err := r.SpeedupStudy(ctx, spec, "CG", workload.C, experiments.CoarseSweepCounts(spec, *step))
			if err != nil {
				return err
			}
			experiments.RenderSpeedup(os.Stdout, d)
			fmt.Println()
		}
		return nil
	})
	run("whitebox", func() error {
		for _, spec := range specs {
			d, err := r.WhiteBoxStudy(ctx, spec, "CG", workload.C, experiments.CoarseSweepCounts(spec, *step))
			if err != nil {
				return err
			}
			experiments.RenderWhiteBox(os.Stdout, d)
			fmt.Println()
		}
		return nil
	})
	run("ablations", func() error {
		for _, spec := range specs {
			if !spec.UMA() && spec.Sockets > 2 {
				a, err := r.AblationInputs(ctx, spec, experiments.CoarseSweepCounts(spec, *step))
				if err != nil {
					return err
				}
				experiments.RenderAblationInputs(os.Stdout, a)
			}
			ctrl, err := r.AblationController(ctx, spec)
			if err != nil {
				return err
			}
			experiments.RenderAblationController(os.Stdout, ctrl)
			linear, err := r.AblationLinearBaseline(ctx, spec, "CG", workload.C)
			if err != nil {
				return err
			}
			experiments.RenderAblationLinear(os.Stdout, linear)
		}
		return nil
	})
}
