package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestWorkerPanicIsolated injects a panic into exactly one run of a plan
// and verifies the contract: that run fails with *WorkerPanicError (stack
// attached), every other run completes normally, partial results are
// preserved in RunAll's slice, and the runner stays usable afterwards.
func TestWorkerPanicIsolated(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 4
	var traceBuf bytes.Buffer
	r.Tracer = telemetry.NewTracer(&traceBuf)
	r.Metrics = telemetry.NewRegistry()
	spec := machine.IntelUMA8()
	r.FaultFn = func(point FaultPoint, key RunKey) error {
		if point == FaultBeforeSim && key.Cores == 3 {
			panic("injected: worker blew up")
		}
		return nil
	}

	plan := []RunItem{
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 1},
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 2},
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 3}, // panics
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 4},
	}
	results, err := r.RunAll(context.Background(), plan)
	if err == nil {
		t.Fatal("RunAll swallowed the injected panic")
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Errorf("errors.Is(err, ErrWorkerPanic) = false for %v", err)
	}
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err is %T, want *WorkerPanicError", err)
	}
	if wp.Key.Cores != 3 || wp.Threads != 8 {
		t.Errorf("panic attributed to cores=%d threads=%d, want 3 and 8", wp.Key.Cores, wp.Threads)
	}
	if !strings.Contains(string(wp.Stack), "invoke") {
		t.Errorf("panic stack does not reach the worker frame:\n%s", wp.Stack)
	}
	// Partial results: every non-panicking slot completed.
	if len(results) != len(plan) {
		t.Fatalf("results len = %d, want %d", len(results), len(plan))
	}
	for i, res := range results {
		if i == 2 {
			if res.TotalCycles != 0 {
				t.Errorf("panicked slot has a result: %+v", res)
			}
			continue
		}
		if res.TotalCycles == 0 {
			t.Errorf("slot %d (cores=%d) did not complete", i, plan[i].Cores)
		}
	}
	// The panic is observable: tracer event and metric.
	if !strings.Contains(traceBuf.String(), "runner.panic") {
		t.Error("no runner.panic trace event emitted")
	}
	if got := r.Metrics.Counter("runner_panic_total").Value(); got != 1 {
		t.Errorf("runner_panic_total = %d, want 1", got)
	}

	// The runner survives: clearing the fault and retrying the failed key
	// succeeds (the error was never cached).
	r.FaultFn = nil
	if _, err := r.Run(context.Background(), spec, "CG", workload.W, 3); err != nil {
		t.Fatalf("runner unusable after panic: %v", err)
	}
}

// TestMidSweepCancelThenResume is the kill-and-resume contract end to
// end: a sweep canceled mid-flight journals its completed runs; a fresh
// runner attached to the same journal replays them (annotated [resumed],
// counted in runner_resumed_total), re-simulates only the remainder, and
// produces measurements identical to an uninterrupted sweep's.
func TestMidSweepCancelThenResume(t *testing.T) {
	spec := machine.IntelUMA8()
	counts := []int{1, 2, 3, 4, 5, 6}
	journalPath := filepath.Join(t.TempDir(), "sweep.journal")

	// Reference: uninterrupted sweep.
	ref := NewRunner(quickTune)
	ref.Jobs = 2
	wantMeas, err := ref.Sweep(context.Background(), spec, "CG", workload.W, counts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted sweep: cancel after the third completed simulation.
	r1 := NewRunner(quickTune)
	r1.Jobs = 1 // serial, so "cancel after 3" is deterministic
	resumed, skipped, err := r1.AttachJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || skipped != 0 {
		t.Fatalf("AttachJournal on a missing file resumed=%d skipped=%d, want 0/0", resumed, skipped)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	r1.FaultFn = func(point FaultPoint, key RunKey) error {
		if point == FaultBeforeSim && done.Add(1) > 3 {
			cancel()
		}
		return nil
	}
	_, err = r1.Sweep(ctx, spec, "CG", workload.W, counts)
	if err == nil {
		t.Fatal("canceled sweep returned nil error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, sim.ErrCanceled) {
		t.Errorf("sweep error %v is neither context.Canceled nor sim.ErrCanceled", err)
	}
	if err := r1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, skipped, ok := parseJournal(data)
	if !ok || skipped != 0 {
		t.Fatalf("journal unparsable: ok=%v skipped=%d", ok, skipped)
	}
	if len(entries) == 0 || len(entries) >= len(counts) {
		t.Fatalf("journaled %d runs, want a strict subset of %d", len(entries), len(counts))
	}

	// Resume: a new runner (fresh process in real life) replays the
	// journal and finishes the sweep.
	r2 := NewRunner(quickTune)
	r2.Jobs = 2
	var progress bytes.Buffer
	r2.Progress = &progress
	r2.Metrics = telemetry.NewRegistry()
	resumed, skipped, err = r2.AttachJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != len(entries) || skipped != 0 {
		t.Fatalf("AttachJournal resumed=%d skipped=%d, want %d/0", resumed, skipped, len(entries))
	}
	gotMeas, err := r2.Sweep(context.Background(), spec, "CG", workload.W, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMeas, wantMeas) {
		t.Errorf("resumed sweep diverged:\n got %+v\nwant %+v", gotMeas, wantMeas)
	}
	if got := r2.Metrics.Counter("runner_resumed_total").Value(); got != uint64(resumed) {
		t.Errorf("runner_resumed_total = %d, want %d", got, resumed)
	}
	if !strings.Contains(progress.String(), "[resumed]") {
		t.Errorf("no [resumed] annotation in progress output:\n%s", progress.String())
	}
	// Only the remainder was re-simulated.
	completed, _ := simCounts(r2)
	if completed != len(counts)-resumed {
		t.Errorf("resumed sweep simulated %d runs, want %d", completed, len(counts)-resumed)
	}
	if err := r2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCorruptLineSkipped verifies torn-write recovery: a journal
// with one corrupt line and one truncated line loads the intact entries,
// reports the damaged ones as skipped with a warning, and the affected
// runs re-simulate to the same results.
func TestJournalCorruptLineSkipped(t *testing.T) {
	spec := machine.IntelUMA8()
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "sweep.journal")

	// Build a complete journal of three runs.
	r1 := NewRunner(quickTune)
	if _, _, err := r1.AttachJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	want, err := r1.Sweep(context.Background(), spec, "CG", workload.W, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Damage it: corrupt the middle entry, truncate the final one
	// mid-line (what a kill during the last append leaves behind).
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 4 { // header + 3 entries
		t.Fatalf("journal has %d lines, want 4", len(lines))
	}
	lines[2] = []byte(`{"key":BROKEN`)
	lines[3] = lines[3][:len(lines[3])/2]
	if err := os.WriteFile(journalPath, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(quickTune)
	var progress bytes.Buffer
	r2.Progress = &progress
	resumed, skipped, err := r2.AttachJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || skipped != 2 {
		t.Fatalf("resumed=%d skipped=%d, want 1/2", resumed, skipped)
	}
	if !strings.Contains(progress.String(), "WARN journal") {
		t.Errorf("no warning for skipped lines:\n%s", progress.String())
	}
	got, err := r2.Sweep(context.Background(), spec, "CG", workload.W, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-repair sweep diverged:\n got %+v\nwant %+v", got, want)
	}
	completed, _ := simCounts(r2)
	if completed != 2 {
		t.Errorf("re-simulated %d runs, want 2 (the damaged entries)", completed)
	}
	if err := r2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWriteFailureNonFatal injects journal append failures and
// verifies the sweep still succeeds — persistence is best-effort — while
// the failures are counted and warned about.
func TestJournalWriteFailureNonFatal(t *testing.T) {
	spec := machine.IntelUMA8()
	r := NewRunner(quickTune)
	var progress bytes.Buffer
	r.Progress = &progress
	r.Metrics = telemetry.NewRegistry()
	if _, _, err := r.AttachJournal(filepath.Join(t.TempDir(), "sweep.journal")); err != nil {
		t.Fatal(err)
	}
	r.FaultFn = func(point FaultPoint, key RunKey) error {
		if point == FaultJournalWrite {
			return fmt.Errorf("injected: disk full")
		}
		return nil
	}
	if _, err := r.Sweep(context.Background(), spec, "CG", workload.W, []int{1, 2}); err != nil {
		t.Fatalf("journal failure killed the sweep: %v", err)
	}
	if got := r.Metrics.Counter("runner_journal_errors_total").Value(); got != 2 {
		t.Errorf("runner_journal_errors_total = %d, want 2", got)
	}
	if !strings.Contains(progress.String(), "WARN journal write failed") {
		t.Errorf("no journal-failure warning:\n%s", progress.String())
	}
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalStaleVersionRestarted verifies that a journal written by a
// different cache version is discarded, not resumed.
func TestJournalStaleVersionRestarted(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "sweep.journal")
	stale := fmt.Sprintf("{\"version\":%d}\n{\"key\":{\"machine\":\"bogus\",\"program\":\"CG\",\"class\":\"W\",\"cores\":1,\"scale\":0.05},\"result\":{}}\n",
		cacheVersion+1)
	if err := os.WriteFile(journalPath, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(quickTune)
	resumed, skipped, err := r.AttachJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || skipped != 0 {
		t.Errorf("stale journal resumed=%d skipped=%d, want 0/0", resumed, skipped)
	}
	if err := r.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// The file was restarted with the current version header.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("{\"version\":%d}\n", cacheVersion); string(data) != want {
		t.Errorf("restarted journal = %q, want %q", data, want)
	}
}

// TestRunCanceledInQueue verifies the queue-wait cancellation point: with
// a saturated worker pool, a canceled caller returns promptly with the
// context error and runner_canceled_total is incremented.
func TestRunCanceledInQueue(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 1
	r.Metrics = telemetry.NewRegistry()
	block := make(chan struct{})
	release := make(chan struct{})
	r.simulate = func(context.Context, RunItem) (sim.Result, error) {
		close(block)
		<-release
		return sim.Result{TotalCycles: 1}, nil
	}
	spec := machine.IntelUMA8()
	go r.Run(context.Background(), spec, "CG", workload.W, 1)
	<-block // the only worker slot is now held

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Run(ctx, spec, "CG", workload.W, 2)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("queued run returned %v, want context.Canceled", err)
	}
	if got := r.Metrics.Counter("runner_canceled_total").Value(); got != 1 {
		t.Errorf("runner_canceled_total = %d, want 1", got)
	}
	close(release)
}
