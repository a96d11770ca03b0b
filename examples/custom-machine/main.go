// Custom machine: the machine description is fully parametric, so the
// library answers "what if" questions the paper raises in its conclusions —
// here, how much does DOUBLING the memory channels per controller reduce
// contention on a hypothetical future 32-core part? ("adding additional
// memory controllers reduces the memory contention".)
//
// The example defines a 2-socket, 32-core NUMA machine from scratch, runs
// SP.C on a narrow and a wide memory configuration, and compares the
// measured degree of contention.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// future32 is a hypothetical 32-core NUMA machine.
func future32(channels int) machine.Spec {
	return machine.Spec{
		Name:           fmt.Sprintf("Future32x%dch", channels),
		Sockets:        2,
		CoresPerSocket: 16,
		ClockGHz:       3.0,
		Levels: []machine.CacheLevel{
			{Config: cache.Config{Name: "L1", Size: 4 << 10, Line: 64, Ways: 8, Latency: 4}, Scope: machine.PerCore},
			{Config: cache.Config{Name: "L2", Size: 32 << 10, Line: 64, Ways: 8, Latency: 12}, Scope: machine.PerCore},
			{Config: cache.Config{Name: "L3", Size: 1 << 20, Line: 64, Ways: 16, Latency: 40}, Scope: machine.PerSocket},
		},
		MCsPerSocket: 1,
		MC: memctrl.Config{
			Channels:    channels,
			Banks:       8,
			RowBytes:    2048,
			LineBytes:   64,
			HitLatency:  24,
			MissLatency: 78,
			Discipline:  memctrl.FRFCFS,
		},
		HopLatency: 200,
		Links:      [][2]int{{0, 1}},
		MSHRs:      12,
	}
}

func main() {
	wl, err := workload.NewTuned("SP", workload.C, workload.Tuning{RefScale: 0.25})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SP.C on a hypothetical 32-core NUMA machine:")
	fmt.Printf("%-16s %14s %14s %10s\n", "memory config", "C(1) cycles", "C(32) cycles", "ω(32)")
	for _, channels := range []int{2, 4} {
		spec := future32(channels)
		threads := spec.TotalCores()
		measure := func(cores int) sim.Result {
			res, err := sim.Run(context.Background(), sim.Config{Spec: spec, Threads: threads, Cores: cores},
				wl.Streams(threads))
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		base := measure(1)
		full := measure(threads)
		omega := core.Omega(float64(full.TotalCycles), float64(base.TotalCycles))
		fmt.Printf("%-16s %14d %14d %10.2f\n",
			fmt.Sprintf("%d channels/MC", channels), base.TotalCycles, full.TotalCycles, omega)
	}
	fmt.Println("\nReading: widening each controller shrinks the queueing delay that")
	fmt.Println("dominates SP's stall cycles — the contention factor drops accordingly.")
}
