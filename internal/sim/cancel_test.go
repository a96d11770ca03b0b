package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestRunCanceled verifies the typed cancellation error and its partial
// counters: a context canceled before the run ends stops the event loop
// within CancelEvery events of the first check and reports everything
// measured so far.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	const every = 64
	_, err := Run(ctx, Config{Spec: testSpec(), Threads: 2, Cores: 2, CancelEvery: every},
		memBoundStreams(2, 5000))
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T, want *CanceledError", err)
	}
	// Bounded latency: the context was canceled before the first event, so
	// the loop must stop at the very first check — after exactly CancelEvery
	// dispatched events.
	if ce.Partial.Events == 0 || ce.Partial.Events > every {
		t.Errorf("partial events = %d, want 1..%d (cancellation latency bound)", ce.Partial.Events, every)
	}
	if !ce.Partial.Aborted {
		t.Error("partial result not marked Aborted")
	}
	if ce.DroppedEvents == 0 {
		t.Error("no pending events dropped; expected a drained queue")
	}
}

// TestRunCanceledObserved exercises the same cancellation path through the
// observer's drive loop and checks the run.cancel trace event is emitted.
func TestRunCanceledObserved(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	tracer := telemetry.NewTracer(&buf)
	_, err := Run(ctx, Config{
		Spec: testSpec(), Threads: 2, Cores: 2, CancelEvery: 64,
		Observe: &ObserveConfig{Interval: 500, Tracer: tracer},
	}, memBoundStreams(2, 5000))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T", err)
	}
	if ce.Partial.Events == 0 || ce.Partial.Events > 64+1 { // +1: the armed sampler tick may land in the window
		t.Errorf("partial events = %d, want within the check window", ce.Partial.Events)
	}
	if !strings.Contains(buf.String(), "run.cancel") {
		t.Errorf("tracer output missing run.cancel event:\n%s", buf.String())
	}
}

// TestRunUncancelableContextCompletes pins that a Background context (nil
// Done channel) takes the unchecked fast path and completes normally.
func TestRunUncancelableContextCompletes(t *testing.T) {
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 2, Cores: 2},
		memBoundStreams(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("run aborted")
	}
}

// TestCancellationDoesNotPerturbCounters verifies that running with a
// live (but never canceled) context produces byte-identical counters to a
// Background run: the cancellation probe reads, never writes.
func TestCancellationDoesNotPerturbCounters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 4, Cores: 2},
		memBoundStreams(4, 200))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(ctx, Config{Spec: testSpec(), Threads: 4, Cores: 2, CancelEvery: 8},
		memBoundStreams(4, 200))
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalCycles != checked.TotalCycles || base.Events != checked.Events ||
		base.OffChipRequests != checked.OffChipRequests || base.Makespan != checked.Makespan {
		t.Errorf("checked run diverged: base %+v vs checked %+v", base, checked)
	}
}

// TestRunReportsEveryConfigField checks that Run's validation reports
// every invalid field at once.
func TestRunReportsEveryConfigField(t *testing.T) {
	spec := testSpec()
	_, err := Run(context.Background(), Config{
		Spec:      spec,
		Threads:   -1,
		Cores:     spec.TotalCores() + 5,
		Placement: Placement(99),
	}, nil)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("errors.Is(err, ErrBadConfig) = false for %v", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T, want *ConfigError", err)
	}
	if len(ce.Fields) != 4 {
		t.Fatalf("reported %d invalid fields, want 4: %v", len(ce.Fields), err)
	}
	want := map[string]bool{"Threads": false, "Cores": false, "Placement": false, "Streams": false}
	for _, f := range ce.Fields {
		if _, ok := want[f.Field]; !ok {
			t.Errorf("unexpected field %q in %v", f.Field, err)
		}
		want[f.Field] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("field %q not reported in %v", name, err)
		}
	}
}

// TestRunStreamMismatchError pins the Streams pseudo-field in the
// validation error.
func TestRunStreamMismatchError(t *testing.T) {
	_, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 4, Cores: 2},
		memBoundStreams(2, 10))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if !strings.Contains(err.Error(), "Streams") {
		t.Errorf("error does not name the Streams pseudo-field: %v", err)
	}
}
