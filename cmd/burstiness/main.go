// Command burstiness profiles the off-chip memory traffic of one workload
// in the paper's 5 µs LLC-miss windows and reports the burst-size
// distribution: CCDF points (the paper's Fig. 4 log-log plot data), the
// power-law tail fit, and the bursty/non-bursty classification.
//
// Usage:
//
//	burstiness -machine IntelNUMA24 -program CG -class S
//	burstiness -machine IntelNUMA24 -program x264 -class native -ccdf
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/burst"
	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/viz"
	"repro/internal/workload"
)

func main() {
	var common cli.Common
	var (
		micros = flag.Float64("window", 0, "sampling window in microseconds (0 = paper's 5us divided by machine.CacheScale)")
		ccdf   = flag.Bool("ccdf", false, "print the full CCDF points")
		hurst  = flag.Bool("hurst", false, "also estimate the Hurst exponent of the window series")
		plot   = flag.Bool("plot", false, "render the CCDF as an ASCII log-log chart")
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
	if *micros == 0 {
		*micros = float64(burst.DefaultWindowMicros) / machine.CacheScale
	}
	window := burst.WindowCycles(*micros, spec.ClockGHz)
	if window == 0 {
		fatal(fmt.Errorf("-window %gus is shorter than one cycle", *micros))
	}
	threads := spec.TotalCores()
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()
	res, err := sim.Run(ctx, sim.Config{Spec: spec, MissWindow: window}, wl.Streams(threads))
	if err != nil {
		fatal(err)
	}
	windows := res.MissWindows

	fmt.Printf("# %s %s.%s: %d threads, %d cores, %gus windows (%d cycles)\n",
		spec.Name, wl.Name(), wl.Class(), threads, threads, *micros, window)
	fmt.Printf("# %d off-chip requests over %d windows\n", res.OffChipRequests, len(windows))

	a, err := burst.Analyze(windows)
	if errors.Is(err, burst.ErrNoTraffic) {
		fmt.Println("no off-chip traffic: working set fully cached")
		return
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("bursts           %d\n", a.Bursts)
	fmt.Printf("total lines      %d\n", a.TotalLines)
	fmt.Printf("max burst        %d lines\n", a.MaxLines)
	fmt.Printf("mean burst       %.1f lines\n", a.MeanLines)
	fmt.Printf("busy windows     %.1f%%\n", 100*a.NonEmptyFraction)
	fmt.Printf("tail fit         alpha=%.2f R2=%.2f (x >= %.0f, %d points)\n",
		a.Tail.Alpha, a.Tail.R2, a.TailXmin, a.Tail.N)
	fmt.Printf("verdict          %s\n", a.Classify())

	if *hurst {
		series := make([]float64, len(windows))
		for i, c := range windows {
			series[i] = float64(c)
		}
		if h, err := stats.Hurst(series); err == nil {
			fmt.Printf("hurst            %.2f\n", h)
		} else {
			fmt.Printf("hurst            n/a (%v)\n", err)
		}
	}
	if *ccdf {
		fmt.Println("\n# x P(burst>x)")
		for _, pt := range a.CCDF {
			fmt.Printf("%12.0f %12.6g\n", pt.X, pt.P)
		}
	}
	if *plot {
		var ch viz.Chart
		ch.Title = fmt.Sprintf("P(burst > x), %s.%s (log-log)", wl.Name(), wl.Class())
		ch.XLabel = "burst size [cache lines]"
		ch.YLabel = "P"
		ch.LogX = true
		ch.LogY = true
		var xs, ys []float64
		for _, pt := range a.CCDF {
			xs = append(xs, pt.X)
			ys = append(ys, pt.P)
		}
		ch.Add(viz.Series{Name: "ccdf", X: xs, Y: ys})
		ch.Render(os.Stdout)
	}
}

func fatal(err error) {
	cli.Fatal("burstiness", err)
}
