package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Runner executes, deduplicates and caches simulation runs. Sweeps for
// different experiments share runs (e.g. the CG.C sweep feeds Fig. 3,
// Fig. 5 and Table IV), so the cache cuts total runtime substantially.
//
// A Runner is safe for concurrent use. Cached runs are served without
// re-simulating; concurrent requests for the same not-yet-cached run block
// on a single in-flight simulation (singleflight) instead of duplicating
// it. At most Jobs simulations execute at once. Every batch API takes a
// context.Context: cancellation propagates into queued work (waiting for a
// worker slot), coalesced waits, and the simulator's own event loop. See
// doc.go for the full concurrency and fault contract.
type Runner struct {
	// Tuning scales workload iteration counts (1.0 for full fidelity).
	Tuning workload.Tuning
	// Progress, when non-nil, receives one line per served run with a
	// completed/submitted counter, an outcome annotation — [sim] for a
	// fresh simulation, [dedup] for a singleflight-coalesced wait, [cache]
	// for a cache hit, [resumed] for a hit served from a resume journal —
	// and, for sim and dedup, the wall-clock duration. Writes are
	// serialized by the Runner; the writer itself need not be
	// goroutine-safe.
	Progress io.Writer
	// Jobs bounds the number of simulations executing concurrently.
	// Zero or negative means runtime.GOMAXPROCS(0). Set it before the
	// first run; later changes are ignored.
	Jobs int
	// Tracer, when non-nil, receives one "runner.span" event per served
	// run, splitting wall-clock time into worker-queue wait and execute
	// time and carrying the same sim|dedup|cache|resumed outcome as
	// Progress, plus "runner.canceled", "runner.panic" and
	// "runner.resume" lifecycle events.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, counts served runs by outcome
	// (runner_sim_total, runner_dedup_total, runner_cache_total,
	// runner_resumed_total), cancellations and panics
	// (runner_canceled_total, runner_panic_total), journal write failures
	// (runner_journal_errors_total), and feeds the runner_execute_ms
	// histogram.
	Metrics *telemetry.Registry
	// FaultFn, when non-nil, is consulted at the named fault points with
	// the run key; a non-nil return aborts that step with the returned
	// error, and a panic inside FaultFn propagates exactly like a panic in
	// the simulation itself. It exists for tests to deterministically
	// inject worker panics, cancellations and journal-write failures —
	// production code leaves it nil.
	FaultFn func(point FaultPoint, key RunKey) error

	mu       sync.Mutex
	cache    map[RunKey]sim.Result
	inflight map[RunKey]*inflightRun
	sem      chan struct{}
	// resumed marks cache keys loaded from a resume journal that have not
	// yet been served; the first hit on such a key reports [resumed] (and
	// runner_resumed_total) instead of [cache], so a resumed sweep's logs
	// account for every journal entry actually used.
	resumed map[RunKey]bool
	journal *journal

	// progMu guards the progress counters and serializes Progress writes.
	progMu    sync.Mutex
	submitted int // simulations started (cache misses claimed)
	completed int // simulations finished

	// simulate is the underlying run function; tests override it to count
	// and fake executions. nil means (*Runner).simulateRun. The item's
	// Threads is always resolved (non-zero).
	simulate func(ctx context.Context, it RunItem) (sim.Result, error)
}

// FaultPoint names a place where Runner.FaultFn can inject a failure.
type FaultPoint uint8

const (
	// FaultBeforeSim fires in the worker goroutine just before the
	// simulation runs. Returning an error fails the run; panicking
	// exercises the worker panic isolation.
	FaultBeforeSim FaultPoint = iota
	// FaultJournalWrite fires before a journal append. Returning an error
	// simulates a journal write failure (which is non-fatal: the run still
	// succeeds, the entry is simply not persisted).
	FaultJournalWrite
)

// ErrWorkerPanic is the sentinel a recovered worker panic matches via
// errors.Is. The concrete error is always a *WorkerPanicError.
var ErrWorkerPanic = errors.New("experiments: worker panicked")

// WorkerPanicError reports a panic recovered inside a simulation worker.
// The panic is confined to its run: other workers continue, the runner
// stays usable, and batch APIs preserve the completed runs' results.
type WorkerPanicError struct {
	// Key identifies the run whose worker panicked.
	Key RunKey
	// Threads is the run's program thread count.
	Threads int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the panic site.
	Stack []byte
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("experiments: worker panicked running %s: %v", e.Key.label(e.Threads), e.Value)
}

// Is reports a match against the ErrWorkerPanic sentinel.
func (e *WorkerPanicError) Is(target error) bool { return target == ErrWorkerPanic }

// inflightRun is one in-flight simulation that duplicate requesters wait
// on. done is closed after res/err are set.
type inflightRun struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// RunKey identifies one cached simulation by content: program.class on a
// machine at one active-core count under one workload scale, plus a
// Variant digest of everything else that shapes the run. It is the cache
// key, the resume-journal key and the fault-injection coordinate; Hash is
// its content address.
type RunKey struct {
	Machine string         `json:"machine"`
	Program string         `json:"program"`
	Class   workload.Class `json:"class"`
	Cores   int            `json:"cores"`
	Scale   float64        `json:"scale"`
	// Variant is empty for the paper's protocol (one thread per core, no
	// miss windows) on an unmodified preset machine. Otherwise it is the
	// hex SHA-256 of the canonical JSON of the machine spec, the thread
	// count and the miss window, so a mutated machine that keeps its
	// preset's name never shares the preset's results.
	Variant string `json:"variant,omitempty"`
}

// Hash returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding (fixed field order, the encoding the persistent
// cache and the journal use). Identical runs hash identically across
// processes and restarts.
func (k RunKey) Hash() string { return sha256JSON(k) }

// sha256JSON returns the hex SHA-256 of v's JSON encoding.
func sha256JSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Keys and machine specs are plain data; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// label names the run in progress lines and errors. Runs beyond the
// paper's protocol on a preset also show their thread count and the
// start of their variant digest.
func (k RunKey) label(threads int) string {
	s := fmt.Sprintf("%s %s.%s n=%d", k.Machine, k.Program, k.Class, k.Cores)
	if k.Variant != "" {
		s += fmt.Sprintf(" threads=%d variant=%.12s", threads, k.Variant)
	}
	return s
}

// attrs returns the run's identifying tracer attributes — machine,
// program, class, cores, threads and, when set, variant — followed by
// extra.
func (k RunKey) attrs(threads int, extra ...any) []any {
	a := make([]any, 0, 12+len(extra))
	a = append(a, "machine", k.Machine, "program", k.Program, "class", string(k.Class),
		"cores", k.Cores, "threads", threads)
	if k.Variant != "" {
		a = append(a, "variant", k.Variant)
	}
	return append(a, extra...)
}

// RunItem identifies one simulation of a measurement plan: program.class
// on a machine at one active-core count.
type RunItem struct {
	Spec    machine.Spec
	Program string
	Class   workload.Class
	Cores   int
	// Threads is the number of program threads; 0 means one per machine
	// core, the paper's protocol.
	Threads int
	// MissWindow, when non-zero, counts the run's off-chip requests per
	// window of this many cycles into sim.Result.MissWindows; 0 means off.
	MissWindow uint64
}

// presetSpecs holds every machine preset by name. Built once, it lets
// the key check a spec against its preset without rebuilding the preset
// per run.
var presetSpecs = func() map[string]machine.Spec {
	specs := make(map[string]machine.Spec)
	for _, name := range machine.Names() {
		specs[name], _ = machine.ByName(name)
	}
	return specs
}()

// keyOf returns the content address of one run at this runner's scale.
// A thread count equal to the machine's cores keys like the default 0.
func (r *Runner) keyOf(it RunItem) RunKey {
	key := RunKey{Machine: it.Spec.Name, Program: it.Program, Class: it.Class, Cores: it.Cores, Scale: r.Tuning.RefScale}
	threads := it.Threads
	if threads == it.Spec.TotalCores() {
		threads = 0
	}
	if threads == 0 && it.MissWindow == 0 {
		if preset, ok := presetSpecs[it.Spec.Name]; ok && it.Spec.Equal(preset) {
			return key
		}
	}
	key.Variant = sha256JSON(struct {
		Spec       machine.Spec `json:"spec"`
		Threads    int          `json:"threads"`
		MissWindow uint64       `json:"miss_window"`
	}{it.Spec, threads, it.MissWindow})
	return key
}

// NewRunner returns a Runner with the given workload tuning.
func NewRunner(tune workload.Tuning) *Runner {
	return &Runner{
		Tuning:   tune,
		cache:    make(map[RunKey]sim.Result),
		inflight: make(map[RunKey]*inflightRun),
	}
}

// workers returns the semaphore bounding concurrent simulations, creating
// it from Jobs on first use.
func (r *Runner) workers() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sem == nil {
		jobs := r.Jobs
		if jobs <= 0 {
			jobs = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, jobs)
	}
	return r.sem
}

// Run simulates program.class on the machine with the given number of
// active cores (threads fixed at the machine's total cores, per the
// paper's protocol), caching results. Concurrent calls for the same key
// share one simulation. Cancelling ctx aborts the call wherever it is —
// waiting for a worker slot, waiting on a coalesced run, or mid-simulation
// (the sim event loop polls ctx every sim.DefaultCancelEvery events).
func (r *Runner) Run(ctx context.Context, spec machine.Spec, program string, class workload.Class, cores int) (sim.Result, error) {
	return r.run(ctx, RunItem{Spec: spec, Program: program, Class: class, Cores: cores})
}

// run serves one item through the cache, the singleflight layer, the
// worker pool and the journal — the one path every run takes.
func (r *Runner) run(ctx context.Context, it RunItem) (sim.Result, error) {
	if it.Threads == 0 {
		it.Threads = it.Spec.TotalCores()
	}
	key := r.keyOf(it)

	c := r.claim(key)
	if c.outcome != "" {
		r.report(c.outcome, key, it.Threads, 0, 0, c.res)
		return c.res, nil
	}
	if !c.owner {
		// Another goroutine is already simulating this key: wait for it
		// rather than duplicating the run or blocking the whole cache.
		return r.waitShared(ctx, key, it.Threads, c.fl)
	}
	fl := c.fl

	fl.res, fl.err = r.execute(ctx, key, it)

	r.settle(key, fl)
	close(fl.done)
	if fl.err == nil {
		r.appendJournal(key, fl.res)
	}
	return fl.res, fl.err
}

// runClaim is what one Run call found under the lock: a finished result
// (outcome non-empty), an in-flight run to wait on, or — with owner set —
// a freshly registered run this call must execute and settle.
type runClaim struct {
	res     sim.Result
	outcome string
	fl      *inflightRun
	owner   bool
}

// claim performs the lock-held cache and in-flight lookup for one key,
// registering a new in-flight run when this call is first.
func (r *Runner) claim(key RunKey) runClaim {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.cache[key]; ok {
		outcome := outcomeCache
		if r.resumed[key] {
			delete(r.resumed, key)
			outcome = outcomeResumed
		}
		return runClaim{res: res, outcome: outcome}
	}
	if fl, ok := r.inflight[key]; ok {
		return runClaim{fl: fl}
	}
	fl := &inflightRun{done: make(chan struct{})}
	if r.inflight == nil {
		r.inflight = make(map[RunKey]*inflightRun)
	}
	r.inflight[key] = fl
	return runClaim{fl: fl, owner: true}
}

// settle publishes a finished owner run: cache the result on success and
// retire the in-flight entry. The caller closes fl.done after this
// returns, so waiters always observe the settled state.
func (r *Runner) settle(key RunKey, fl *inflightRun) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fl.err == nil {
		r.cache[key] = fl.res
	}
	delete(r.inflight, key)
}

// waitShared blocks on another caller's in-flight simulation of key
// until it settles or ctx is canceled.
func (r *Runner) waitShared(ctx context.Context, key RunKey, threads int, fl *inflightRun) (sim.Result, error) {
	dspan := r.startSpanDedupWait(ctx)
	start := time.Now()
	select {
	case <-fl.done:
	case <-ctx.Done():
		dspan.End("canceled", true)
		r.noteCanceled(ctx, key, threads, "dedup-wait")
		return sim.Result{}, fmt.Errorf("experiments: run %s: %w", key.label(threads), ctx.Err())
	}
	dspan.End()
	if fl.err == nil {
		r.report(outcomeDedup, key, threads, time.Since(start), 0, fl.res)
	}
	return fl.res, fl.err
}

// Run outcome annotations for Progress lines, tracer spans and metrics.
const (
	outcomeSim     = "sim"     // fresh simulation executed by this call
	outcomeDedup   = "dedup"   // waited on another caller's in-flight run
	outcomeCache   = "cache"   // served from the in-memory result cache
	outcomeResumed = "resumed" // served from a resume journal (first hit)
)

// execute performs one simulation under the worker-pool bound and reports
// progress. Worker panics (including panics from FaultFn) are confined to
// this run and surface as *WorkerPanicError.
func (r *Runner) execute(ctx context.Context, key RunKey, it RunItem) (sim.Result, error) {
	enqueued := time.Now()
	qspan := r.startSpanQueueWait(ctx)
	sem := r.workers()
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		qspan.End("canceled", true)
		r.noteCanceled(ctx, key, it.Threads, "queue-wait")
		return sim.Result{}, fmt.Errorf("experiments: run %s: %w", key.label(it.Threads), ctx.Err())
	}
	qspan.End()
	defer func() { <-sem }()
	queueWait := time.Since(enqueued)

	r.progMu.Lock()
	r.submitted++
	r.progMu.Unlock()

	start := time.Now()
	xspan := r.startSpanExecute(ctx)
	res, err := r.invoke(ctx, key, it)
	if xspan.Active() {
		attrs := key.attrs(it.Threads, "config_hash", key.Hash())
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		xspan.End(attrs...)
	}

	r.progMu.Lock()
	r.completed++
	r.progMu.Unlock()
	switch {
	case err == nil:
		r.report(outcomeSim, key, it.Threads, queueWait, time.Since(start), res)
	case errors.Is(err, ErrWorkerPanic):
		r.notePanic(key, it.Threads, err)
	case errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.noteCanceled(ctx, key, it.Threads, "simulate")
	}
	return res, err
}

// Request-scoped span helpers: when the tracer is on AND the caller's
// context carries a telemetry.SpanContext (the serving path does; batch
// sweeps do not), the phases of one run — dedup wait, worker-queue wait,
// execute — become child spans of the caller's request so cmd/traceview
// can show where a slow predict spent its time. Off either condition they
// return the zero Span, whose End is a no-op.
func (r *Runner) startSpanDedupWait(ctx context.Context) telemetry.Span {
	if !r.Tracer.Enabled() {
		return telemetry.Span{}
	}
	sc, ok := telemetry.SpanFromContext(ctx)
	if !ok {
		return telemetry.Span{}
	}
	return r.Tracer.StartSpan(sc, "runner.dedup_wait")
}

func (r *Runner) startSpanQueueWait(ctx context.Context) telemetry.Span {
	if !r.Tracer.Enabled() {
		return telemetry.Span{}
	}
	sc, ok := telemetry.SpanFromContext(ctx)
	if !ok {
		return telemetry.Span{}
	}
	return r.Tracer.StartSpan(sc, "runner.queue_wait")
}

func (r *Runner) startSpanExecute(ctx context.Context) telemetry.Span {
	if !r.Tracer.Enabled() {
		return telemetry.Span{}
	}
	sc, ok := telemetry.SpanFromContext(ctx)
	if !ok {
		return telemetry.Span{}
	}
	return r.Tracer.StartSpan(sc, "runner.execute")
}

// invoke runs the simulation body with panic isolation: a panic anywhere
// below — the fault hook, workload construction or the simulator — is
// recovered into a *WorkerPanicError carrying the stack, leaving every
// other worker (and the runner itself) untouched.
func (r *Runner) invoke(ctx context.Context, key RunKey, it RunItem) (res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = sim.Result{}
			err = &WorkerPanicError{Key: key, Threads: it.Threads, Value: v, Stack: debug.Stack()}
		}
	}()
	if f := r.FaultFn; f != nil {
		if ferr := f(FaultBeforeSim, key); ferr != nil {
			return sim.Result{}, ferr
		}
	}
	simulate := r.simulate
	if simulate == nil {
		simulate = r.simulateRun
	}
	return simulate(ctx, it)
}

// noteCanceled records one canceled run on the tracer and metrics. When
// the context carries a request span, its trace ID is attached so a 499
// in the server log is joinable to the cancellation checkpoint that
// observed it.
func (r *Runner) noteCanceled(ctx context.Context, key RunKey, threads int, where string) {
	if r.Metrics != nil {
		r.Metrics.Counter("runner_canceled_total").Inc()
	}
	if r.Tracer.Enabled() {
		attrs := key.attrs(threads, "where", where)
		if sc, ok := telemetry.SpanFromContext(ctx); ok {
			attrs = append(attrs, "trace", sc.Trace.String())
		}
		r.Tracer.Emit("runner.canceled", attrs...)
	}
}

// notePanic records one recovered worker panic on the tracer, metrics and
// the progress stream.
func (r *Runner) notePanic(key RunKey, threads int, err error) {
	if r.Metrics != nil {
		r.Metrics.Counter("runner_panic_total").Inc()
	}
	if r.Tracer.Enabled() {
		r.Tracer.Emit("runner.panic", key.attrs(threads, "error", err.Error())...)
	}
	r.Progressf("WARN worker panic %s: %v\n", key.label(threads), err)
}

// report fans one served run out to the optional sinks: a Progress line
// annotated with the outcome, a "runner.span" tracer event splitting
// worker-queue wait from execute time, and outcome counters plus an
// execute-time histogram on Metrics. For dedup the wait parameter is the
// time spent blocked on the coalesced run; cache and resumed hits carry
// no timings.
func (r *Runner) report(outcome string, key RunKey, threads int, wait, exec time.Duration, res sim.Result) {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	if r.Metrics != nil {
		// One literal per outcome keeps every metric name greppable
		// (enforced by simcheck's tracelint).
		switch outcome {
		case outcomeSim:
			r.Metrics.Counter("runner_sim_total").Inc()
			r.Metrics.Histogram("runner_execute_ms", 1, 10, 100, 1000, 10000).Observe(ms(exec))
		case outcomeDedup:
			r.Metrics.Counter("runner_dedup_total").Inc()
		case outcomeCache:
			r.Metrics.Counter("runner_cache_total").Inc()
		case outcomeResumed:
			r.Metrics.Counter("runner_resumed_total").Inc()
		}
	}
	if r.Tracer.Enabled() {
		r.Tracer.Emit("runner.span", key.attrs(threads, "outcome", outcome,
			"queue_wait_ms", ms(wait), "execute_ms", ms(exec))...)
	}

	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.Progress == nil {
		return
	}
	if outcome == outcomeCache || outcome == outcomeResumed {
		fmt.Fprintf(r.Progress, "[%d/%d] run %s [%s]: C=%d misses=%d\n",
			r.completed, r.submitted, key.label(threads), outcome,
			res.TotalCycles, res.LLCMisses)
		return
	}
	fmt.Fprintf(r.Progress, "[%d/%d] run %s [%s]: C=%d misses=%d (%.0fms)\n",
		r.completed, r.submitted, key.label(threads), outcome,
		res.TotalCycles, res.LLCMisses, ms(wait+exec))
}

// simulateRun is the real simulation backend of Run.
func (r *Runner) simulateRun(ctx context.Context, it RunItem) (sim.Result, error) {
	wl, err := workload.NewTuned(it.Program, it.Class, r.Tuning)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.Config{Spec: it.Spec, Threads: it.Threads, Cores: it.Cores, MissWindow: it.MissWindow}
	return sim.Run(ctx, cfg, wl.Streams(it.Threads))
}

// RunAll submits a whole measurement plan at once and collects results in
// plan order: it is RunStream, gathered. Up to Jobs simulations run
// concurrently; duplicate items — within the plan or against other
// in-flight work — are coalesced by the singleflight layer. It always
// returns the results slice: on failure the completed items keep their
// results (failed slots are zero), alongside the first error in plan
// order, reported after all items settle so retries observe a quiescent
// runner. A worker panic fails only its own item; every other item still
// completes.
func (r *Runner) RunAll(ctx context.Context, items []RunItem) ([]sim.Result, error) {
	results := make([]sim.Result, len(items))
	errs := make([]error, len(items))
	for sr := range r.RunStream(ctx, items) {
		results[sr.Index], errs[sr.Index] = sr.Res, sr.Err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// StreamResult is one completed item of a RunStream batch: the item's
// index in the submitted slice, and the result or error of its run.
type StreamResult struct {
	// Index is the position of the completed item in the RunStream
	// items slice.
	Index int
	// Res is the simulation result; zero when Err is non-nil.
	Res sim.Result
	// Err is the item's failure (cancellation included), nil on success.
	Err error
}

// RunStream submits a batch and delivers each result the moment its
// simulation settles, in completion order — cache hits and coalesced
// duplicates arrive first, cold runs as the worker pool finishes them.
// Every submitted item yields exactly one StreamResult (failed and
// canceled items carry Err), then the channel closes. The caller must
// drain the channel; cancelling ctx fails the remaining items promptly,
// so draining after cancel is cheap.
func (r *Runner) RunStream(ctx context.Context, items []RunItem) <-chan StreamResult {
	out := make(chan StreamResult)
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it RunItem) {
			defer wg.Done()
			res, err := r.run(ctx, it)
			//simcheck:allow(chanlint) RunStream's contract is that the caller drains out; a ctx.Done arm here would drop settled frames whose admission tokens the server releases per frame, and cancel already fails remaining items promptly
			out <- StreamResult{Index: i, Res: res, Err: err}
		}(i, it)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// KeyFor returns the cache key this runner uses for one Run: the
// (machine, program, class, cores) coordinate, the runner's workload
// scale and the machine's Variant. It is the content address of a run —
// the resume journal and the serving layer's config hashes all key on it.
func (r *Runner) KeyFor(spec machine.Spec, program string, class workload.Class, cores int) RunKey {
	return r.keyOf(RunItem{Spec: spec, Program: program, Class: class, Cores: cores})
}

// Cached returns the cached result for key, if any, without triggering a
// simulation. It observes completed runs only — an in-flight simulation
// for the key reports false until it finishes. The analytical tier
// (internal/model) uses it to fit from anchor points that are already
// paid for without ever scheduling new work.
func (r *Runner) Cached(key RunKey) (sim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cache[key]
	return res, ok
}

// CacheLen returns the number of cached runs.
func (r *Runner) CacheLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// CachedSweep returns program.class's measurements at coreCounts, in
// order, when every one of those runs is already cached, and false
// otherwise. Like Cached it never schedules a simulation.
func (r *Runner) CachedSweep(spec machine.Spec, program string, class workload.Class, coreCounts []int) ([]core.Measurement, bool) {
	meas := make([]core.Measurement, len(coreCounts))
	for i, n := range coreCounts {
		res, ok := r.Cached(r.KeyFor(spec, program, class, n))
		if !ok {
			return nil, false
		}
		meas[i] = measurementOf(n, res)
	}
	return meas, true
}

func measurementOf(cores int, res sim.Result) core.Measurement {
	return core.Measurement{
		Cores:     cores,
		Cycles:    float64(res.TotalCycles),
		LLCMisses: float64(res.LLCMisses),
	}
}

// Sweep measures program.class at each core count. The runs execute
// concurrently (bounded by Jobs); the measurements come back in coreCounts
// order and are identical to a serial sweep's.
func (r *Runner) Sweep(ctx context.Context, spec machine.Spec, program string, class workload.Class, coreCounts []int) ([]core.Measurement, error) {
	return r.SweepAsync(ctx, spec, program, class, coreCounts)()
}

// SweepAsync starts measuring program.class at each core count without
// blocking and returns a wait function. The wait function blocks until
// every run settles and returns the measurements in coreCounts order; it
// may be called any number of times. Overlapping async sweeps share runs
// through the cache and singleflight layers. Cancelling ctx aborts the
// sweep's unfinished runs; completed runs stay cached (and journaled).
func (r *Runner) SweepAsync(ctx context.Context, spec machine.Spec, program string, class workload.Class, coreCounts []int) func() ([]core.Measurement, error) {
	items := make([]RunItem, len(coreCounts))
	for i, n := range coreCounts {
		items[i] = RunItem{Spec: spec, Program: program, Class: class, Cores: n}
	}
	type outcome struct {
		meas []core.Measurement
		err  error
	}
	ch := make(chan outcome, 1)
	//simcheck:allow(leaklint) terminates when RunAll settles, which cancel guarantees; the outcome channel is buffered(1) so the final send never parks
	go func() {
		results, err := r.RunAll(ctx, items)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		meas := make([]core.Measurement, len(results))
		for i, res := range results {
			meas[i] = measurementOf(coreCounts[i], res)
		}
		ch <- outcome{meas: meas}
	}()
	var once sync.Once
	var out outcome
	return func() ([]core.Measurement, error) {
		once.Do(func() { out = <-ch })
		return out.meas, out.err
	}
}

// Progressf reports non-run progress (per-figure milestones) through the
// same serialized Progress writer the runs use.
func (r *Runner) Progressf(format string, args ...any) {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format, args...)
	}
}

// FullSweepCounts returns 1..totalCores.
func FullSweepCounts(spec machine.Spec) []int {
	counts := make([]int, spec.TotalCores())
	for i := range counts {
		counts[i] = i + 1
	}
	return counts
}

// CoarseSweepCounts returns a cheaper sweep: every step-th core count plus
// the per-socket boundary points the figures hinge on (1, c, c+1, ...,
// total).
func CoarseSweepCounts(spec machine.Spec, step int) []int {
	if step < 1 {
		step = 1
	}
	want := map[int]bool{1: true, spec.TotalCores(): true}
	for n := step; n <= spec.TotalCores(); n += step {
		want[n] = true
	}
	c := spec.CoresPerSocket
	for s := 1; s < spec.Sockets; s++ {
		want[s*c] = true
		want[s*c+1] = true
	}
	var counts []int
	for n := 1; n <= spec.TotalCores(); n++ {
		if want[n] {
			counts = append(counts, n)
		}
	}
	return counts
}
