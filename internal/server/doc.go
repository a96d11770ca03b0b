// Package server implements the HTTP/JSON serving layer of cmd/simserved:
// contention-as-a-service over the tiered backend of internal/model.
//
// The handler surface (wire contract in internal/api and docs/API.md,
// operations in docs/SERVER.md):
//
//	POST /v1/predict   one contention query → ω(n), per-MC utilization,
//	                   predicted makespan; X-Simserved-Tier names the
//	                   backend that answered (analytical | simulation)
//	POST /v1/curve     a whole ω(n) sweep in one request: batched JSON,
//	                   or streaming NDJSON (Accept: application/x-ndjson)
//	                   where analytical points go out in one flush up
//	                   front and simulation points stream in completion
//	                   order
//	GET  /v1/catalog   the machines, programs and classes this instance
//	                   can answer for, plus its workload scale
//	GET  /healthz      liveness + fit/cache occupancy
//	GET  /metrics      Prometheus text exposition of the request,
//	                   admission-queue and backend metrics
//	/debug/pprof/*     the standard pprof handlers
//
// Both query endpoints run one query path, and a predict is a one-point
// curve: one parse of the shared fields, one model decision
// (Predictor.AnalyticalCurve), one admission stage with one 429, and one
// simulation dispatch (Predictor.PredictStream). Each handler keeps only
// its framing, so a refusal is counted once whichever endpoint asked.
//
// # Admission and backpressure
//
// Analytical-tier answers cost microseconds and are never queued: every
// request first tries the closed form. Only queries that must simulate
// enter the bounded admission queue (Config.MaxQueue tokens covering
// queued plus running simulation requests). When the queue is full the
// server sheds load immediately — 429 with Retry-After — rather than
// stacking goroutines behind a pool that is minutes deep; the client can
// retry, and by then the singleflight cache often answers for free.
// Queue depth is exported live (simserved_queue_depth) next to per-tier
// latency histograms, so saturation is visible before it pages anyone.
//
// # Concurrency contract
//
// A Server is safe for any number of concurrent requests: handlers are
// stateless, admission is a buffered-channel semaphore, the predictor
// serializes only its fit-table writes, and all counters are
// telemetry.Registry atomics. Request cancellation is context-first end
// to end: a client disconnect propagates through the predictor into the
// runner and the simulator's own event loop, freeing the admission token
// and the worker slot within a bounded number of simulated events.
package server
