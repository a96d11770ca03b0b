// Command memsim runs one workload on one simulated machine and prints the
// PAPI-style hardware counters plus memory-controller statistics — the
// equivalent of the paper's papiex measurement runs.
//
// Usage:
//
//	memsim -machine IntelNUMA24 -program CG -class C -cores 12
//	memsim -machine AMDNUMA48 -program SP -class C -cores 48 -placement interleave
//	memsim -machine IntelUMA8 -program CG -class W -telemetry out/
//
// With -telemetry DIR the run is observed by the in-simulator sampler and
// three artifacts land in DIR: memsim.trace.ndjson (structured run
// events), memsim.timeline.dat (sampled utilization/occupancy time
// series, gnuplot-ready) and memsim.metrics.prom (Prometheus text
// snapshot); an ASCII utilization chart is printed after the counters.
//
// Ctrl-C cancels the simulation within a bounded number of events and
// exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/counters"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var common cli.Common
	var (
		cores     = flag.Int("cores", 0, "active cores, fill-processor-first (0 = all)")
		threads   = flag.Int("threads", 0, "program threads (0 = machine cores, the paper's protocol)")
		placement = flag.String("placement", "first-touch", "NUMA page placement: first-touch|interleave")
		perThread = flag.Bool("per-thread", false, "also print per-thread counters")
		coherence = flag.Bool("coherence", false, "enable the MESI-style invalidation directory")
		telemDir  = flag.String("telemetry", "", "observe the run and write trace/timeline/metrics artifacts into this directory")
		interval  = flag.Uint64("sample-interval", 0, "telemetry sampling period in cycles (0 = 5us at the machine clock)")
	)
	common.RegisterMachine("IntelNUMA24")
	common.RegisterWorkload("CG", "C")
	common.RegisterScale()
	flag.Parse()

	spec, err := common.Spec()
	if err != nil {
		fatal(err)
	}
	wl, err := workload.NewTuned(common.Program, common.WorkloadClass(), common.Tuning())
	if err != nil {
		fatal(err)
	}
	var place sim.Placement
	switch *placement {
	case "first-touch":
		place = sim.FirstTouch
	case "interleave":
		place = sim.Interleave
	default:
		fatal(fmt.Errorf("unknown placement %q", *placement))
	}

	nThreads := *threads
	if nThreads == 0 {
		nThreads = spec.TotalCores()
	}
	nCores := *cores
	if nCores == 0 {
		nCores = spec.TotalCores()
	}
	// Check the counts before building streams, which a negative thread
	// count cannot size; sim.Run checks the whole Config again.
	if nThreads < 1 || nCores < 1 || nCores > spec.TotalCores() {
		fatal(fmt.Errorf("-threads %d -cores %d: want threads >= 1 and cores in 1..%d",
			nThreads, nCores, spec.TotalCores()))
	}
	cfg := sim.Config{Spec: spec, Threads: nThreads, Cores: nCores, Placement: place, Coherence: *coherence}

	var reg *telemetry.Registry
	if *telemDir != "" {
		if err := os.MkdirAll(*telemDir, 0o755); err != nil {
			fatal(err)
		}
		traceFile, err := os.Create(filepath.Join(*telemDir, "memsim.trace.ndjson"))
		if err != nil {
			fatal(err)
		}
		defer traceFile.Close()
		reg = telemetry.NewRegistry()
		cfg.Observe = &sim.ObserveConfig{
			Interval: *interval,
			Tracer:   telemetry.NewTracer(traceFile),
			Registry: reg,
		}
	}

	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	res, err := sim.Run(ctx, cfg, wl.Streams(nThreads))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# %s %s.%s: %d threads on %d cores (%s placement)\n",
		spec.Name, wl.Name(), wl.Class(), res.Threads, res.Cores, place)
	fmt.Printf("# footprint %.1f MB, makespan %d cycles\n",
		float64(wl.FootprintBytes())/(1<<20), res.Makespan)
	fmt.Print(counters.FromResult(res))
	fmt.Printf("%-16s %d\n", "OFFCHIP_REQ", res.OffChipRequests)
	if *coherence {
		fmt.Printf("%-16s %d\n", "INVALIDATIONS", res.Invalidations)
	}

	fmt.Println("\n# memory controllers")
	for i, mc := range res.MCStats {
		fmt.Printf("MC%-2d requests %10d  rowhit %5.1f%%  avg wait %7.1f  avg svc %6.1f  util %5.1f%%\n",
			i, mc.Requests, 100*mc.RowHitRatio(), mc.AvgWait(), mc.AvgService(),
			100*mc.Utilization(res.Makespan, spec.MC.Channels))
	}
	for i, b := range res.BusStats {
		fmt.Printf("bus%-1d requests %10d  avg wait %7.1f\n", i, b.Requests, b.AvgWait())
	}

	if *telemDir != "" {
		files, err := experiments.WriteTelemetryArtifacts(*telemDir, "memsim", res.Telemetry, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n# telemetry: %d samples every %d cycles\n",
			res.Telemetry.InFlight.Len(), res.Telemetry.Interval)
		for _, f := range files {
			fmt.Printf("# wrote %s\n", f)
		}
		experiments.UtilizationChart(res.Telemetry, "off-chip utilization").Render(os.Stdout)
	}

	if *perThread {
		fmt.Println("\n# per-thread")
		for i, th := range res.PerThread {
			fmt.Printf("thread %-3d work %12d stall %12d memstall %12d offchip %9d remote %9d\n",
				i, th.Work, th.Stall, th.MemStall, th.OffChip, th.Remote)
		}
		fmt.Printf("\n# per-thread totals (papiex-style, %d threads)\n", len(res.PerThread))
		fmt.Print(counters.FromResult(res))
	}
}

func fatal(err error) {
	cli.Fatal("memsim", err)
}
