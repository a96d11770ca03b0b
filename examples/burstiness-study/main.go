// Burstiness study: the paper's second key observation (section III-B2) is
// that the burstiness of off-chip memory traffic depends on the problem
// size — small problems are cache-resident and touch memory in rare,
// long-tailed bursts, while large problems saturate the memory system and
// produce non-bursty traffic. That observation is what licenses the M/M/1
// model for large problems.
//
// This example counts LLC misses per 5 µs window in CG runs across all
// five NPB problem classes and prints each class's burst profile and
// verdict.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/burst"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	spec := machine.IntelNUMA24() // the paper's Fig. 4 machine
	threads := spec.TotalCores()
	// 5 us of real-machine time, scaled with the machine's capacity scale.
	window := burst.WindowCycles(float64(burst.DefaultWindowMicros)/machine.CacheScale, spec.ClockGHz)

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tfootprint\toff-chip lines\tbusy windows\tmax burst\ttail slope\tverdict")

	for _, class := range []workload.Class{workload.S, workload.W, workload.A, workload.B, workload.C} {
		// The cache-resident classes need their full iteration counts for
		// meaningful burst statistics and are cheap anyway; only the
		// thrashing classes are shortened.
		scale := 1.0
		if class == workload.B || class == workload.C {
			scale = 0.5
		}
		wl, err := workload.NewTuned("CG", class, workload.Tuning{RefScale: scale})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(context.Background(), sim.Config{
			Spec:       spec,
			Threads:    threads,
			Cores:      threads,
			MissWindow: window,
		}, wl.Streams(threads))
		if err != nil {
			log.Fatal(err)
		}

		a, err := burst.Analyze(res.MissWindows)
		if errors.Is(err, burst.ErrNoTraffic) {
			fmt.Fprintf(tw, "CG.%s\t%.1f MB\t0\t0%%\t-\t-\tfully cached\n",
				class, float64(wl.FootprintBytes())/(1<<20))
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "CG.%s\t%.1f MB\t%d\t%.1f%%\t%d\t%.2f\t%s\n",
			class, float64(wl.FootprintBytes())/(1<<20),
			a.TotalLines, 100*a.NonEmptyFraction, a.MaxLines, a.Tail.Alpha, a.Classify())
	}
	tw.Flush()

	fmt.Println("\nReading: as the problem size grows, the fraction of busy 5 µs windows")
	fmt.Println("rises toward 100% — traffic stops being bursty exactly when contention")
	fmt.Println("becomes large, which is why the M/M/1 model applies to large problems.")
}
