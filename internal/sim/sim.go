// Package sim is the execution-driven multicore simulator: it runs
// per-thread memory-reference streams (internal/trace) on a machine
// description (internal/machine), producing the hardware-counter style
// measurements the paper collects with PAPI — total cycles, work cycles,
// stall cycles, instructions and last-level cache misses — plus memory
// controller and bus statistics.
//
// # Core model
//
// Cores are superscalar-like state machines with MSHR-limited memory-level
// parallelism: a core keeps retiring work and issuing independent off-chip
// requests until either its MSHRs fill or the stream issues a dependent
// load, and then stalls. Stall time therefore includes the queueing delay
// at the memory controllers, which is how contention appears in the
// counters. This matches the paper's observation that the growth in total
// cycles under contention is entirely growth in stall cycles.
//
// # Experiment protocol
//
// Following the paper (section III-A), a run has a fixed number of threads
// (by default one per machine core) executed on a variable number of active
// cores chosen fill-processor-first; threads are pinned round-robin to the
// active cores and multiplexed with a round-robin quantum when the cores
// are oversubscribed. NUMA pages are placed first-touch (or interleaved),
// so data homes onto the controllers of the sockets whose cores touch it.
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/eventq"
	"repro/internal/machine"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// Placement selects the NUMA page-placement policy.
type Placement uint8

const (
	// FirstTouch homes each page on a controller local to the socket whose
	// core first touches it (Linux default; what the paper's numactl setup
	// produces for partitioned workloads).
	FirstTouch Placement = iota
	// Interleave round-robins pages across the controllers of all active
	// sockets.
	Interleave
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case Interleave:
		return "interleave"
	default:
		return "unknown"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Spec is the machine to simulate.
	Spec machine.Spec
	// Threads is the number of program threads; 0 defaults to the machine's
	// total cores (the paper's protocol).
	Threads int
	// Cores is the number of active cores, activated fill-processor-first;
	// 0 defaults to all cores.
	Cores int
	// Quantum is the round-robin time slice in cycles for oversubscribed
	// cores; 0 defaults to 50000.
	Quantum uint64
	// BatchLimit bounds how many cycles a core may advance per simulation
	// event while executing cache hits; 0 defaults to 2000.
	BatchLimit uint64
	// PageBytes is the placement granularity; 0 defaults to 4096.
	PageBytes uint64
	// Placement selects the page-placement policy.
	Placement Placement
	// MissHook, when non-nil, is invoked at every off-chip request with the
	// simulated issue time and the issuing core (used by the burstiness
	// sampler).
	MissHook func(now uint64, core int)
	// MaxCycles aborts the run when the simulated clock passes it; 0 means
	// unlimited.
	MaxCycles uint64
	// Coherence enables the MESI-style invalidation directory: a store to
	// a line cached by another socket invalidates the remote copies, so
	// true- and false-sharing produce real coherence misses. Off by
	// default; the workloads model their barrier coherence traffic
	// synthetically (see internal/workload), which stays accurate without
	// the directory's memory overhead.
	Coherence bool
	// CancelEvery is the cancellation-check period: Run polls ctx.Done()
	// every CancelEvery dispatched events, so a cancellation is honored
	// within that many events. 0 defaults to DefaultCancelEvery. The check
	// is a prebuilt non-blocking channel receive, so the event loop stays
	// allocation-free (pinned by TestZeroAllocSteadyState in
	// internal/eventq).
	CancelEvery uint64
	// Observe, when non-nil, attaches the in-run telemetry layer: a
	// simulated-time sampler (utilization, queue occupancy, in-flight
	// requests, per-core stall fraction as time series on
	// Result.Telemetry), structured run tracing and live metrics. nil
	// disables it at zero cost — the steady-state hot path stays
	// allocation-free, pinned by the telemetry alloc tests. Sampling does
	// not perturb the simulation: the sampler only reads engine state, so
	// every counter in Result is identical with and without it (only
	// Result.Events grows by the dispatched sample events).
	Observe *ObserveConfig
}

// ThreadStats are the per-thread counters.
type ThreadStats struct {
	// Work is the number of cycles in which the thread retired computation.
	Work uint64
	// Stall counts all cycles the thread could not retire: cache-hit
	// latency beyond L1, plus off-chip memory waiting.
	Stall uint64
	// MemStall is the subset of Stall spent waiting for off-chip requests
	// (dependent-load waits and MSHR-full waits) — the paper's M(n)+part of
	// B(n).
	MemStall uint64
	// SyncStall is the time spent blocked at barriers. It is NOT part of
	// Stall or Cycles: a blocking barrier deschedules the thread, so its
	// hardware cycle counters do not advance (PAPI semantics).
	SyncStall uint64
	// Instructions approximates retired instructions (one per reference
	// plus one per work cycle).
	Instructions uint64
	// OffChip counts LLC misses issued off-chip by this thread.
	OffChip uint64
	// Remote counts the subset of OffChip served by a non-local controller.
	Remote uint64
	// Finish is the simulated time the thread completed.
	Finish uint64
}

// Cycles returns Work+Stall, the thread's total cycle count.
func (t ThreadStats) Cycles() uint64 { return t.Work + t.Stall }

// Result aggregates one run.
type Result struct {
	// MachineName and Cores/Threads echo the configuration.
	MachineName string
	Threads     int
	Cores       int
	// TotalCycles is the sum over threads of work+stall cycles — the
	// paper's C(n).
	TotalCycles uint64
	// WorkCycles is the summed work cycles W(n).
	WorkCycles uint64
	// StallCycles is the summed stall cycles B(n)+M(n).
	StallCycles uint64
	// MemStallCycles is the summed off-chip waiting time.
	MemStallCycles uint64
	// SyncStallCycles is the summed barrier waiting time (not included in
	// TotalCycles; see ThreadStats.SyncStall).
	SyncStallCycles uint64
	// Instructions is the summed instruction count.
	Instructions uint64
	// LLCMisses is the number of demand misses at the last cache level
	// (equals OffChipRequests).
	LLCMisses uint64
	// OffChipRequests is the number of requests submitted to memory
	// controllers.
	OffChipRequests uint64
	// RemoteRequests is the subset served by remote controllers.
	RemoteRequests uint64
	// Invalidations counts cross-socket copies dropped by the coherence
	// directory (0 unless Config.Coherence).
	Invalidations uint64
	// Makespan is the wall-clock simulated duration in cycles.
	Makespan uint64
	// Events is the number of discrete events the queue dispatched during
	// the run — the denominator-free throughput unit benchmark harnesses
	// report as simulated-events/sec.
	Events uint64
	// Telemetry holds the sampled time series when the run was observed
	// (Config.Observe non-nil), nil otherwise. It is deliberately excluded
	// from JSON so the persistent run cache stays compact and versioned on
	// counters alone.
	Telemetry *RunTelemetry `json:"-"`
	// PerThread has one entry per thread.
	PerThread []ThreadStats
	// MCStats has one entry per memory controller.
	MCStats []memctrl.Stats
	// BusStats has one entry per UMA bus (empty for NUMA machines).
	BusStats []memctrl.Stats
	// Aborted reports that MaxCycles was reached before completion.
	Aborted bool
}

// DefaultCancelEvery is the default cancellation-check period in events:
// the cadence at which Run polls ctx.Done() when CancelEvery is zero.
const DefaultCancelEvery = 4096

// ErrCanceled is the sentinel a canceled run matches via errors.Is. The
// concrete error is always a *CanceledError carrying the partial counters
// accumulated up to the cancellation point.
var ErrCanceled = errors.New("sim: run canceled")

// CanceledError reports that a run was stopped by its context before
// completion. It matches ErrCanceled under errors.Is and unwraps to the
// context's error (context.Canceled or context.DeadlineExceeded).
type CanceledError struct {
	// Partial holds the counters accumulated up to the cancellation point,
	// assembled exactly like an aborted run's (open blocked intervals are
	// charged through the cancel time, Aborted is set). DroppedEvents
	// pending events were discarded without running.
	Partial Result
	// DroppedEvents is the number of pending events drained from the queue
	// at cancellation.
	DroppedEvents int
	cause         error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled after %d events (%v)", e.Partial.Events, e.cause)
}

// Is reports a match against the ErrCanceled sentinel.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap returns the context's error, so errors.Is(err, context.Canceled)
// also holds.
func (e *CanceledError) Unwrap() error { return e.cause }

// Run executes streams (one per thread) on the configured machine and
// returns the measured counters.
//
// Run honors ctx: the event loop polls ctx.Done() every
// Config.CancelEvery dispatched events (a prebuilt non-blocking receive,
// so the hot path stays allocation-free), and on cancellation drains the
// queue — releasing pooled callbacks — and returns a *CanceledError
// carrying the partial counters. Use context.Background() for an
// uncancellable run; its nil Done channel skips the checks entirely.
//
// Configuration errors are reported as a *ConfigError (matching
// ErrBadConfig) naming every invalid field at once.
//
// Run takes ownership of streams: whatever the outcome, it stops every
// stream implementing trace.Stopper before returning.
func Run(ctx context.Context, cfg Config, streams []trace.Stream) (Result, error) {
	defer trace.StopAll(streams...)
	cfg.applyDefaults()
	if err := cfg.validate(len(streams)); err != nil {
		return Result{}, err
	}

	q := new(eventq.Queue)
	m, err := machine.Build(cfg.Spec, q)
	if err != nil {
		return Result{}, err
	}
	e := newEngine(cfg, m, q)
	for i, s := range streams {
		e.addThread(i, s)
	}

	// Telemetry attaches outside the hot path: a nil Observe leaves the
	// engine exactly as built, with no hooks installed anywhere.
	var obs *observer
	if cfg.Observe != nil {
		obs = newObserver(e, cfg.Observe)
		cfg.Observe.Tracer.Emit("run.start",
			"machine", cfg.Spec.Name, "threads", cfg.Threads, "cores", cfg.Cores,
			"placement", cfg.Placement.String(), "sample_interval", obs.interval)
	}

	e.start()
	if obs != nil {
		obs.start()
	}

	// The cancellation probe is built once, outside the event loop. A
	// context that can never be canceled (context.Background) has a nil
	// Done channel, in which case the unchecked loops run instead and the
	// per-event cost of cancellation support is exactly zero.
	done := ctx.Done()
	canceled := false
	check := func() bool {
		select {
		case <-done:
			canceled = true
			return false
		default:
			return true
		}
	}

	switch {
	case obs != nil:
		canceled = !obs.drive(cfg.MaxCycles, cfg.CancelEvery, done, check)
	case cfg.MaxCycles > 0:
		var n uint64
		q.RunWhile(func() bool {
			if q.Now() >= cfg.MaxCycles {
				return false
			}
			if done != nil {
				if n++; n >= cfg.CancelEvery {
					n = 0
					return check()
				}
			}
			return true
		})
	case done != nil:
		q.RunChecked(cfg.CancelEvery, check)
	default:
		q.Run()
	}

	if canceled {
		dropped := q.Drain()
		partial := e.result()
		if obs != nil {
			partial.Telemetry = obs.rt
			cfg.Observe.Tracer.Emit("run.cancel",
				"machine", cfg.Spec.Name, "cores", cfg.Cores,
				"cycles", partial.Makespan, "events", partial.Events,
				"dropped", dropped)
		}
		return Result{}, &CanceledError{Partial: partial, DroppedEvents: dropped, cause: ctx.Err()}
	}

	res := e.result()
	if obs != nil {
		if obs.endSet {
			// The terminal sampler tick fired after the run's last real
			// event; report the makespan the unobserved run would have.
			res.Makespan = obs.realEnd
		}
		res.Telemetry = obs.rt
		cfg.Observe.Tracer.Emit("run.end",
			"machine", cfg.Spec.Name, "cores", cfg.Cores,
			"makespan", res.Makespan, "events", res.Events,
			"offchip", res.OffChipRequests, "samples", obs.rt.InFlight.Len(),
			"aborted", res.Aborted)
	}
	return res, nil
}
