// Package experiments regenerates the paper's evaluation artifacts — Table
// II, Fig. 3, Table III, Fig. 4, Fig. 5, Fig. 6 and Table IV — by running
// the workloads (internal/workload) on the simulated machines
// (internal/machine + internal/sim), fitting the analytical model
// (internal/core) from the paper's measurement plans, and rendering the
// same rows and series the paper reports.
//
// # Runner concurrency contract
//
// Runner is the package's execution engine, and it is safe for concurrent
// use by any number of goroutines. Its guarantees:
//
//   - Thread safety: every exported method may be called concurrently.
//     The result cache, the in-flight run table and the progress counters
//     are guarded independently, so cache hits never wait behind running
//     simulations.
//
//   - Deduplication (singleflight): a run is identified by its key
//     (machine, program, class, cores, scale, variant). Concurrent requests for the
//     same not-yet-cached key block on one underlying simulation; exactly
//     one sim.Run executes per key for the lifetime of the Runner, no
//     matter how many goroutines race on it. This also closes the classic
//     check-unlock-simulate-relock window in which two goroutines that
//     both miss the cache would each simulate.
//
//   - Bounded parallelism: at most Jobs simulations (default
//     runtime.GOMAXPROCS(0)) execute at any moment. Excess submissions
//     queue on a semaphore; waiters on an in-flight duplicate do not hold
//     worker slots, so dedup never deadlocks the pool.
//
//   - Determinism: sim.Run is a pure function of its configuration, so a
//     Runner returns bit-identical sim.Result values regardless of Jobs,
//     submission order, or interleaving. Batch APIs (RunAll, Sweep,
//     SweepAsync) return results in plan order, and on error report the
//     first failure in plan order — never a races-dependent one.
//
//   - Progress: the Progress writer receives one line per executed
//     simulation with a completed/submitted counter and per-run timing.
//     Writes are serialized by the Runner, so an os.File or bytes.Buffer
//     is fine as-is.
//
// # Cancellation, resume and fault isolation
//
// Every batch API is context-first. Cancelling the context aborts a call
// at whichever of its three blocking points it has reached — waiting for
// a worker slot, waiting on a coalesced in-flight run, or inside the
// simulator's event loop (which polls ctx.Done() every
// sim.DefaultCancelEvery events, so cancellation latency is bounded).
// Runs that completed before the cancellation stay cached and journaled;
// RunAll always returns its results slice so callers keep the partial
// results.
//
//   - Resume journal: AttachJournal arms an append-only NDJSON journal
//     (see journal.go for the format) that records every fresh simulation
//     as it completes. Re-attaching the same journal replays completed
//     runs into the cache — annotated [resumed] — so a killed sweep
//     restarted with the same plan re-simulates only the remainder and
//     produces byte-identical artifacts (results are deterministic and
//     round-trip exactly through JSON). Corrupt or truncated lines (a
//     kill can tear at most the final line) are skipped with a warning
//     and re-simulated.
//
//   - Panic isolation: a panic in a simulation worker — or in the
//     FaultFn test hook — is recovered into a *WorkerPanicError carrying
//     the stack and confined to its own run; other workers, the cache and
//     the pool are unaffected, and the failed key can be retried.
//
//   - Fault injection: Runner.FaultFn, when set, is consulted at
//     FaultBeforeSim and FaultJournalWrite with the run key, letting
//     tests deterministically inject panics, cancellations and journal
//     write failures. Production code leaves it nil.
//
// Each table/figure driver builds its whole measurement plan up front and
// submits it through RunAll/SweepAsync, so independent runs overlap up to
// the Jobs bound while shared runs (e.g. the CG.C sweep feeding Fig. 3,
// Fig. 5 and Table IV) execute once. There is one run path: Fig. 4's
// miss-window runs, the sensitivity study's mutated machines and the
// oversubscribed thread counts are RunItems too. Their keys carry a
// Variant digest of the spec, thread count and miss window, so they are
// cached, deduplicated and journaled like the paper's preset runs.
package experiments
