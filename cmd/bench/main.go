// Command bench runs the repo's tracked performance benchmarks and writes
// BENCH.json: end-to-end full-sweep simulations per machine preset plus the
// event-queue micro-benchmarks, each reporting ns/op, allocs/op, B/op and —
// for the simulations — simulated events per second.
//
// With -baseline pointing at a previous BENCH.json, the run becomes a
// regression gate: any benchmark more than -tolerance slower (ns/op) than
// its baseline entry fails the run. On failure the fresh numbers are
// written next to -out with a .new suffix so they can be inspected (or
// promoted deliberately) without clobbering the baseline.
//
// Usage:
//
//	bench -out BENCH.json                       # (re)establish a baseline
//	bench -baseline BENCH.json -out BENCH.json  # gate + refresh (make bench)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/cli"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Entry is one benchmark's results.
type Entry struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// Report is the BENCH.json schema. Timestamp and GitRev are provenance
// passed in by the caller (see the Makefile bench target) — never sampled
// inside the tool, so a re-run of identical code produces an identical
// report modulo timings; the regression gate compares Benchmarks only and
// ignores provenance.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GoOS       string  `json:"goos"`
	GoArch     string  `json:"goarch"`
	MaxProcs   int     `json:"maxprocs"`
	Timestamp  string  `json:"timestamp,omitempty"`
	GitRev     string  `json:"git_rev,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	var common cli.Common
	var (
		out       = flag.String("out", "BENCH.json", "where to write results")
		baseline  = flag.String("baseline", "", "previous BENCH.json to gate against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression vs baseline")
		repeat    = flag.Int("repeat", 3, "runs per benchmark; the fastest is kept (noise only adds time)")
		timestamp = flag.String("timestamp", "", "provenance: when this run happened (recorded verbatim)")
		gitRev    = flag.String("git-rev", "", "provenance: source revision benchmarked (recorded verbatim)")
	)
	common.RegisterTelemetry()
	flag.Parse()
	if *repeat < 1 {
		*repeat = 1
	}
	if common.TraceOut != "" {
		f, err := os.Create(common.TraceOut)
		if err != nil {
			cli.Fatal("bench", err)
		}
		defer f.Close()
		benchTracer = telemetry.NewTracer(f)
	}
	if common.DebugAddr != "" {
		benchMetrics = telemetry.NewRegistry()
		addr, stop, err := telemetry.StartDebugServer(common.DebugAddr, benchMetrics)
		if err != nil {
			cli.Fatal("bench", err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "bench: debug server listening on %s\n", addr)
	}
	ctx, stopSignals := cli.SignalContext(context.Background())
	defer stopSignals()

	rep := Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Timestamp: *timestamp,
		GitRev:    *gitRev,
	}
	for _, bm := range benchmarks(ctx) {
		fmt.Fprintf(os.Stderr, "bench: running %s...\n", bm.name)
		var e Entry
		for rep := 0; rep < *repeat; rep++ {
			res := testing.Benchmark(bm.fn)
			cand := Entry{
				Name:         bm.name,
				Iterations:   res.N,
				NsPerOp:      float64(res.T.Nanoseconds()) / float64(res.N),
				AllocsPerOp:  res.AllocsPerOp(),
				BytesPerOp:   res.AllocedBytesPerOp(),
				EventsPerSec: res.Extra["events/sec"],
			}
			if rep == 0 || cand.NsPerOp < e.NsPerOp {
				e = cand
			}
		}
		fmt.Fprintf(os.Stderr, "bench:   %d iter, %.3g ns/op, %d allocs/op\n",
			e.Iterations, e.NsPerOp, e.AllocsPerOp)
		rep.Benchmarks = append(rep.Benchmarks, e)
	}

	if *baseline != "" {
		if regressions := gate(rep, *baseline, *tolerance); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "bench: REGRESSION:", r)
			}
			if err := write(*out+".new", rep); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			} else {
				fmt.Fprintf(os.Stderr, "bench: fresh results left in %s.new (baseline untouched)\n", *out)
			}
			os.Exit(1)
		}
	}
	if err := write(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
}

// gate compares rep against the baseline file and returns one message per
// benchmark whose ns/op regressed beyond tolerance. Benchmarks missing from
// the baseline (new ones) pass; benchmarks present only in the baseline are
// reported so silent deletions fail too.
func gate(rep Report, path string, tolerance float64) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("cannot read baseline %s: %v", path, err)}
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return []string{fmt.Sprintf("cannot parse baseline %s: %v", path, err)}
	}
	byName := make(map[string]Entry, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		byName[e.Name] = e
	}
	var bad []string
	for _, old := range base.Benchmarks {
		now, ok := byName[old.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: present in baseline but not run", old.Name))
			continue
		}
		if limit := old.NsPerOp * (1 + tolerance); now.NsPerOp > limit {
			bad = append(bad, fmt.Sprintf("%s: %.3g ns/op vs baseline %.3g (+%.0f%%, limit +%.0f%%)",
				old.Name, now.NsPerOp, old.NsPerOp,
				100*(now.NsPerOp/old.NsPerOp-1), 100*tolerance))
		}
	}
	return bad
}

func write(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// benchTracer and benchMetrics, when set by -trace-out / -debug-addr, are
// attached to every Runner the sweep benchmarks create.
var (
	benchTracer  *telemetry.Tracer
	benchMetrics *telemetry.Registry
)

// benchmarks lists the tracked set: one end-to-end sweep per machine
// preset (the larger NUMA machines at reduced scale and coarse core
// counts so the whole suite stays under a minute per preset) plus the
// event-queue micro-benchmark.
func benchmarks(ctx context.Context) []namedBench {
	return []namedBench{
		{"FullRun/IntelUMA8@0.25", fullRun(ctx, machine.IntelUMA8(), 0.25, 1)},
		{"FullRun/IntelNUMA24@0.05", fullRun(ctx, machine.IntelNUMA24(), 0.05, 8)},
		{"FullRun/AMDNUMA48@0.02", fullRun(ctx, machine.AMDNUMA48(), 0.02, 16)},
		{"EventQueue", queueBench},
	}
}

// fullRun benchmarks the complete Fig. 3 sweep (CG.C over a core sweep) on
// one machine, cold-cache per iteration, reporting simulated events/sec.
// step 1 sweeps every core count; larger steps use the coarse sweep.
// Ctrl-C propagates through ctx and fails the in-flight benchmark.
func fullRun(ctx context.Context, spec machine.Spec, scale float64, step int) func(b *testing.B) {
	return func(b *testing.B) {
		counts := experiments.FullSweepCounts(spec)
		if step > 1 {
			counts = experiments.CoarseSweepCounts(spec, step)
		}
		var events uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := experiments.NewRunner(workload.Tuning{RefScale: scale})
			r.Tracer = benchTracer
			r.Metrics = benchMetrics
			if _, err := r.Fig3(ctx, spec, counts); err != nil {
				b.Fatal(err)
			}
			for _, n := range counts {
				res, err := r.Run(ctx, spec, "CG", workload.C, n)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// queueBench benchmarks steady-state schedule+dispatch through the event
// queue, the simulator's innermost loop.
func queueBench(b *testing.B) {
	q := new(eventq.Queue)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.After(uint64(i%449), fn)
		if q.Len() >= 64 {
			for q.Len() > 0 {
				q.Step()
			}
		}
	}
	for q.Len() > 0 {
		q.Step()
	}
}
