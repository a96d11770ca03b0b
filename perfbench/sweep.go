package main

import (
	"context"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sweep workload is the paper's Fig. 3: CG.C on IntelUMA8 at every
// active-core count. CG.C runs the same events at any scale from 0.01 up
// to this one, so the scale cannot shorten an op.
const (
	sweepProgram = "CG"
	sweepScale   = 0.25
)

// runSweep times one cold Runner.Run point per op, in whole sweeps whose
// core order the seed draws.
func runSweep(b *bench) error {
	spec := machine.IntelUMA8()
	counts := experiments.FullSweepCounts(spec)
	b.group = len(counts)
	point := func(ctx context.Context, n int, traced bool) (experiments.RunKey, sim.Result, error) {
		r := experiments.NewRunner(workload.Tuning{RefScale: sweepScale})
		r.Jobs = 1
		if traced {
			r.Tracer, r.Metrics = b.led.tracer, b.led.metrics
		}
		res, err := r.Run(ctx, spec, sweepProgram, workload.C, n)
		return r.KeyFor(spec, sweepProgram, workload.C, n), res, err
	}

	// Set-up: a fresh runner and one untimed single-core point.
	err := b.setup(func() error {
		key, res, err := point(context.Background(), 1, false)
		if err != nil {
			return err
		}
		return checkPoint(key, res)
	})
	if err != nil {
		return err
	}

	var order []int
	seen := map[int]sim.Result{}
	b.timed(func(i int, traced bool) opResult {
		if i%len(counts) == 0 {
			order = make([]int, len(counts))
			for j, k := range b.rng.Perm(len(counts)) {
				order[j] = counts[k]
			}
		}
		n := order[i%len(counts)]
		ctx := context.Background()
		var sc telemetry.SpanContext
		if traced {
			sc = telemetry.DeriveSpanContext(b.seed, int64(i))
			ctx = telemetry.ContextWithSpan(ctx, sc)
		}
		start := time.Now()
		key, res, err := point(ctx, n, traced)
		lat := time.Since(start)
		if err != nil {
			return opResult{err: err}
		}
		if err := checkPoint(key, res); err != nil {
			return opResult{err: err}
		}
		if traced {
			b.led.endOp(sc, lat, res.Events)
		}
		seen[n] = res
		return opResult{lat: lat}
	})

	if b.led == nil {
		return nil
	}
	// A short run may not reach every core count: simulate the rest
	// untimed, so the simulated counts cover the full sweep.
	pts := make([]sim.Result, 0, len(counts))
	for _, n := range counts {
		res, ok := seen[n]
		if !ok {
			key, r, err := point(context.Background(), n, false)
			if err == nil {
				err = checkPoint(key, r)
			}
			if err != nil {
				return err
			}
			res = r
		}
		pts = append(pts, res)
	}
	b.simLayers(spec, pts)
	return b.genLayers(sweepProgram, sweepScale, spec.TotalCores())
}

// simLayers records the simulated-time statistics of a workload's fixed
// point set. They depend on neither seed nor host, so they repeat exactly
// across runs, traced or not.
func (b *bench) simLayers(spec machine.Spec, pts []sim.Result) {
	var events, offchip, remote, makespan, wait, served, hits uint64
	peak := 0.0
	for _, res := range pts {
		events += res.Events
		offchip += res.OffChipRequests
		remote += res.RemoteRequests
		makespan += res.Makespan
		for _, st := range res.MCStats {
			wait += st.TotalWait
			served += st.Requests
			hits += st.RowHits
			if u := st.Utilization(res.Makespan, spec.MC.Channels); u > peak {
				peak = u
			}
		}
	}
	n := len(pts)
	b.layer("sim.events", float64(events), "points", n)
	b.layer("sim.offchip_requests", float64(offchip), "points", n)
	b.layer("sim.remote_requests", float64(remote), "points", n)
	b.layer("sim.makespan_cycles", float64(makespan), "points", n)
	b.layer("memctrl.mean_wait_cycles", ratio(float64(wait), float64(served)), "requests", int(served))
	b.layer("memctrl.row_hit_ratio", ratio(float64(hits), float64(served)), "requests", int(served))
	b.layer("memctrl.peak_utilization", peak, "points", n)
}

// genLayers times workload stream generation alone: build the workload,
// make one stream per thread and drain every stream. It repeats three
// times and records the median.
func (b *bench) genLayers(program string, scale float64, threads int) error {
	var ds []time.Duration
	refs := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		wl, err := workload.NewTuned(program, workload.C, workload.Tuning{RefScale: scale})
		if err != nil {
			return err
		}
		refs = 0
		for _, s := range wl.Streams(threads) {
			refs += trace.Count(s)
		}
		ds = append(ds, time.Since(start))
	}
	b.layer("workload.gen_ms", msOf(median(ds)), "repeats", len(ds))
	b.layer("workload.refs", float64(refs), "points", 1)
	return nil
}
