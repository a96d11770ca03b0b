// Quickstart: measure memory contention of one parallel program on a
// simulated multicore machine, the way the paper does it — run the program
// with 1 active core and with all cores, read the PAPI-style counters, and
// compute the degree of memory contention ω(n) = (C(n) - C(1)) / C(1).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// The paper's 24-core Intel NUMA testbed (dual Xeon X5650).
	spec := machine.IntelNUMA24()

	// CG class C: the paper's representative high-contention program.
	// RefScale shortens the run; access patterns are unchanged.
	wl, err := workload.NewTuned("CG", workload.C, workload.Tuning{RefScale: 0.25})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's protocol: the thread count is fixed at the machine's
	// core count; only the number of ACTIVE cores varies
	// (fill-processor-first, threads pinned).
	threads := spec.TotalCores()
	measure := func(cores int) sim.Result {
		// Run validates every Config field and reports all problems at
		// once.
		cfg := sim.Config{Spec: spec, Threads: threads, Cores: cores}
		res, err := sim.Run(context.Background(), cfg, wl.Streams(threads))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := measure(1)
	full := measure(spec.TotalCores())

	fmt.Printf("%s.%s on %s (%d threads)\n\n", wl.Name(), wl.Class(), spec.Name, threads)
	fmt.Println("1 active core (no off-chip contention):")
	fmt.Print(counters.FromResult(base))
	fmt.Printf("\n%d active cores:\n", spec.TotalCores())
	fmt.Print(counters.FromResult(full))

	omega := core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))
	fmt.Printf("\ndegree of memory contention ω(%d) = %.2f\n", spec.TotalCores(), omega)
	fmt.Printf("(the program needs %.0f%% more total cycles purely from memory contention)\n", 100*omega)
}
