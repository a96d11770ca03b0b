// Package model is the serving layer's analytical fast path: it fits the
// paper's M/M/1-based contention regression (equations (5)–(11), see
// internal/core) from a handful of cached simulation anchor points and
// then answers capacity-planning queries — ω(n), per-controller
// utilization, predicted makespan — from the closed form in microseconds,
// falling back to full simulation through experiments.Runner whenever the
// fit does not exist or is not trustworthy for the requested point.
//
// The tier contract, top to bottom:
//
//   - Analytical answers are derived, never measured: once a (machine,
//     program, class, scale) pair has a fit, any core count is answered
//     without simulating. docs/MODEL.md derives every reported quantity
//     from the fitted (μ/r, L/r) pair and maps each equation to the code.
//
//   - The model declines rather than guesses. Every fit, here and in the
//     reproduction's figures, comes from experiments.FitAnchors, and its
//     fit-level verdict from experiments.Fit.Gate: the query falls through
//     to simulation when no fit exists yet for that exact spec
//     (DeclineNoFit: fits are keyed by machine name, so a spec mutated
//     under a preset's name is not answered from the preset's fit), when
//     R² is below Predictor.MinR2 (DeclineLowR2), when the fit misses its own
//     anchors by more than Predictor.MaxResidual (DeclineResidual), or
//     when the core count sits at or past the fitted saturation point μ/L
//     (DeclineSaturated). The reasons are experiments.DeclineReason values.
//
//   - Simulation results self-improve the tier. Every fallback runs
//     through experiments.Runner, so it lands in the content-addressed run
//     cache (and the NDJSON journal when one is attached). After each
//     fallback the predictor checks whether the anchor plan for that pair
//     is now fully cached and, if so, fits — queries that kept missing
//     migrate to the fast path without any dedicated warm-up traffic.
//
// # Concurrency contract
//
// A Predictor is safe for concurrent use by any number of goroutines; it
// is designed to sit under an HTTP handler serving many clients:
//
//   - The fit table is guarded by a read-write mutex: Analytical takes
//     only the read lock, so fast-path queries never serialize behind one
//     another or behind a fit in progress. Each fit's answer table is
//     built before the fit is stored and never written after, so every
//     request goroutine reads it, and the Fit and MCUtilization of the
//     Predictions it hands out, without further locking.
//
//   - Simulation fallbacks inherit every guarantee of experiments.Runner
//     (singleflight dedup, bounded worker pool, context-first
//     cancellation, journal persistence): concurrent cold queries for the
//     same key cost one simulation.
//
//   - Fitting is idempotent and deterministic: anchors are deterministic
//     simulation results, so concurrent Warm/refit calls for the same key
//     write identical entries and the last writer wins harmlessly.
//
// All fields of Predictor must be set before the first call; later
// mutation is racy by design (matching experiments.Runner).
package model
