// Capacity planning with the analytical model: the paper's model needs only
// a handful of profiling runs (three to five), after which it predicts the
// degree of memory contention at EVERY core count — so it can answer
// questions like "how many cores can this workload use before memory
// contention doubles its cycle cost?" without measuring each configuration.
//
// This example fits the model for CG.C on all three testbed machines from
// the paper's input plans and reports, per machine, the largest core count
// whose predicted contention stays under a budget.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

func main() {
	const contentionBudget = 1.0 // tolerate at most +100% cycles

	runner := experiments.NewRunner(workload.Tuning{RefScale: 0.25})
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tfit inputs\tsaturation\tmax cores with ω <= 1.0\tω at full machine")

	for _, spec := range machine.All() {
		fit, err := runner.FitPlan(context.Background(), spec, "CG", workload.C, core.Options{})
		if err != nil {
			log.Fatal(err)
		}

		// Walk the predicted curve to find the largest acceptable count.
		best := 1
		for n := 1; n <= spec.TotalCores(); n++ {
			if fit.Model.Omega(n) <= contentionBudget {
				best = n
			}
		}
		fmt.Fprintf(tw, "%s\t%v\t%.1f cores\t%d of %d\t%.2f\n",
			spec.Name, fit.Anchors, fit.SaturationCores,
			best, spec.TotalCores(), fit.Model.Omega(spec.TotalCores()))
	}
	tw.Flush()

	fmt.Println("\nReading: the model was fitted from 3-5 measurement runs per machine;")
	fmt.Println("every other prediction above required no simulation at all.")
}
