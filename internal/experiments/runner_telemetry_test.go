package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestRunOutcomeAnnotations checks that Progress lines carry the
// sim|dedup|cache outcome, that each served run emits a runner.span trace
// event with the same outcome, and that the Metrics registry counts them.
func TestRunOutcomeAnnotations(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 2
	countingSim(r, 20*time.Millisecond)
	var buf, traceBuf bytes.Buffer
	r.Progress = &buf
	r.Tracer = telemetry.NewTracer(&traceBuf)
	r.Metrics = telemetry.NewRegistry()
	spec := machine.IntelUMA8()

	// First call executes; a concurrent duplicate keyed the same coalesces
	// onto it (dedup); a call after completion is a cache hit.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := r.Run(context.Background(), spec, "CG", workload.W, 2); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, func() bool {
		_, submitted := r.Completed()
		return submitted == 1
	})
	if _, err := r.Run(context.Background(), spec, "CG", workload.W, 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := r.Run(context.Background(), spec, "CG", workload.W, 2); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{"[sim]", "[dedup]", "[cache]"} {
		if strings.Count(out, want) != 1 {
			t.Errorf("progress output has %d %q lines, want 1:\n%s",
				strings.Count(out, want), want, out)
		}
	}

	byOutcome := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev["event"] != "runner.span" || ev["machine"] != "IntelUMA8" || ev["threads"] != float64(8) {
			t.Errorf("unexpected trace event: %v", ev)
		}
		if _, ok := ev["variant"]; ok {
			t.Errorf("preset run carries a variant: %v", ev)
		}
		byOutcome[ev["outcome"].(string)]++
		if ev["outcome"] == "sim" && ev["execute_ms"].(float64) <= 0 {
			t.Errorf("sim span has no execute time: %v", ev)
		}
	}
	if byOutcome["sim"] != 1 || byOutcome["dedup"] != 1 || byOutcome["cache"] != 1 {
		t.Errorf("span outcomes = %v, want one of each", byOutcome)
	}

	snap := r.Metrics.Snapshot()
	for _, name := range []string{"runner_sim_total", "runner_dedup_total", "runner_cache_total"} {
		if snap[name] != 1 {
			t.Errorf("%s = %v, want 1", name, snap[name])
		}
	}
	if snap["runner_execute_ms_count"] != 1 {
		t.Errorf("runner_execute_ms_count = %v, want 1", snap["runner_execute_ms_count"])
	}
}

// TestTelemetryDeterministicAcrossJobs pins the observability half of the
// determinism contract: observed runs produce byte-identical sampled time
// series whether they execute one at a time or all at once.
func TestTelemetryDeterministicAcrossJobs(t *testing.T) {
	spec := machine.IntelUMA8()
	timelines := func(concurrent bool) string {
		bufs := make([]bytes.Buffer, 4)
		var wg sync.WaitGroup
		for i := range bufs {
			observe := func() {
				defer wg.Done()
				wl, err := workload.NewTuned("CG", workload.W, workload.Tuning{RefScale: 0.02})
				if err != nil {
					t.Error(err)
					return
				}
				cfg := sim.Config{Spec: spec, Cores: 2 * (i + 1),
					Observe: &sim.ObserveConfig{Interval: 2000}}
				res, err := sim.Run(context.Background(), cfg, wl.Streams(spec.TotalCores()))
				if err != nil {
					t.Error(err)
					return
				}
				if err := telemetry.WriteTimelineDat(&bufs[i], res.Telemetry.Series()...); err != nil {
					t.Error(err)
				}
			}
			wg.Add(1)
			if concurrent {
				go observe()
			} else {
				observe()
			}
		}
		wg.Wait()
		var all strings.Builder
		for i := range bufs {
			all.Write(bufs[i].Bytes())
		}
		return all.String()
	}
	serial := timelines(false)
	parallel := timelines(true)
	if serial == "" || serial != parallel {
		t.Errorf("sampled time series differ between serial and concurrent runs:\nserial %d bytes, parallel %d bytes",
			len(serial), len(parallel))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunnerRequestScopedSpans checks that when the caller's context
// carries a telemetry.SpanContext (the serving path), one run emits
// runner.queue_wait and runner.execute span.end records parented under
// the request span, and that a context without one emits no span records.
func TestRunnerRequestScopedSpans(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 1
	countingSim(r, time.Millisecond)
	var traceBuf bytes.Buffer
	r.Tracer = telemetry.NewTracer(&traceBuf)
	spec := machine.IntelUMA8()

	parent := telemetry.DeriveSpanContext(99, 1)
	ctx := telemetry.ContextWithSpan(context.Background(), parent)
	if _, err := r.Run(ctx, spec, "CG", workload.W, 2); err != nil {
		t.Fatal(err)
	}

	spans := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev["event"] == "span.end" {
			spans[ev["name"].(string)] = ev
		}
	}
	for _, name := range []string{"runner.queue_wait", "runner.execute"} {
		ev, ok := spans[name]
		if !ok {
			t.Fatalf("missing %s span in trace:\n%s", name, traceBuf.String())
		}
		if ev["trace"] != parent.Trace.String() {
			t.Errorf("%s trace = %v, want %s", name, ev["trace"], parent.Trace)
		}
		if ev["parent"] != parent.Span.String() {
			t.Errorf("%s parent = %v, want %s", name, ev["parent"], parent.Span)
		}
	}
	ev := spans["runner.execute"]
	if ev["program"] != "CG" || ev["cores"] != float64(2) || ev["threads"] != float64(8) ||
		ev["config_hash"] != r.KeyFor(spec, "CG", workload.W, 2).Hash() {
		t.Errorf("runner.execute attrs = %v", ev)
	}
	if _, ok := ev["variant"]; ok {
		t.Errorf("preset run carries a variant: %v", ev)
	}

	// An oversubscribed run names its thread count and variant, and its
	// config hash is that of its own key.
	traceBuf.Reset()
	over := RunItem{Spec: spec, Program: "CG", Class: workload.W, Cores: 2, Threads: 16}
	if _, err := r.RunAll(ctx, []RunItem{over}); err != nil {
		t.Fatal(err)
	}
	key := r.keyOf(over)
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev["name"] == "runner.queue_wait" {
			continue
		}
		if ev["threads"] != float64(16) || ev["variant"] != key.Variant {
			t.Errorf("%v %v: threads/variant = %v/%v, want 16/%s", ev["event"], ev["name"], ev["threads"], ev["variant"], key.Variant)
		}
		if ev["name"] == "runner.execute" && ev["config_hash"] != key.Hash() {
			t.Errorf("runner.execute config_hash = %v, want %s", ev["config_hash"], key.Hash())
		}
	}

	// Without a span in the context (batch sweeps), no span records.
	traceBuf.Reset()
	if _, err := r.Run(context.Background(), spec, "CG", workload.W, 3); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(traceBuf.String(), "span.end") {
		t.Errorf("span records emitted without a request span:\n%s", traceBuf.String())
	}
}
