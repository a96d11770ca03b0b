package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cpuBuckets attributes CPU samples to layers by the package of the
// sample's leaf frame.
var cpuBuckets = []struct {
	name string
	pkgs []string
}{
	{"cpu.cache", []string{"repro/internal/cache"}},
	{"cpu.workload", []string{"repro/internal/workload", "repro/internal/trace"}},
	{"cpu.eventq", []string{"repro/internal/eventq"}},
	{"cpu.sim", []string{"repro/internal/sim"}},
	{"cpu.memctrl", []string{"repro/internal/memctrl"}},
	{"cpu.interconnect", []string{"repro/internal/interconnect"}},
	{"cpu.json", []string{"encoding/json"}},
	{"cpu.net_http", []string{"net/http", "net", "net/textproto", "internal/poll", "syscall", "bufio"}},
	{"cpu.server", []string{"repro/internal/server", "repro/internal/api"}},
	{"cpu.telemetry", []string{"repro/internal/telemetry", "log/slog"}},
}

// layerMetric is one per-layer value with the count it rests on.
type layerMetric struct {
	value    float64
	baseName string
	base     int
}

// layer records one per-layer metric.
func (b *bench) layer(name string, value float64, baseName string, base int) {
	b.layers[name] = layerMetric{value, baseName, base}
}

// ledger is a traced run's per-layer record. It keeps the program's
// tracer output (one JSON object per write) in memory and reads it when
// the run ends, and holds the runner and model counters and the CPU
// profile.
type ledger struct {
	tracer  *telemetry.Tracer
	metrics *telemetry.Registry
	profile bytes.Buffer

	mu      sync.Mutex
	records []byte // tracer output, newline-separated

	tracedOps  []time.Duration // latency of each traced op
	opSpans    []string        // span ID the benchmark gave each traced op
	simEvents  uint64          // events simulated by traced ops
	modelCalls int             // direct Analytical calls timed
	modelTime  time.Duration
	curveCalls int // direct AnalyticalCurve calls timed
	curveTime  time.Duration
}

func newLedger() *ledger {
	l := &ledger{metrics: telemetry.NewRegistry()}
	l.tracer = telemetry.NewTracer(l)
	return l
}

// Write keeps one tracer record.
func (l *ledger) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.records = append(l.records, p...)
	l.mu.Unlock()
	return len(p), nil
}

// traceRecord is the part of a tracer record the ledger reads.
type traceRecord struct {
	Event       string  `json:"event"`
	Name        string  `json:"name"`
	Span        string  `json:"span"`
	Parent      string  `json:"parent"`
	StartUS     float64 `json:"start_us"`
	EndUS       float64 `json:"end_us"`
	Outcome     string  `json:"outcome"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecuteMS   float64 `json:"execute_ms"`
}

// spans is what the kept tracer records add up to.
type spans struct {
	byName    map[string]*spanStat
	covered   float64 // µs of traced ops inside the program's top-level spans
	sims      int     // runner.span records of fresh simulations
	queueMS   float64
	executeMS float64
}

type spanStat struct {
	n     int
	total float64 // microseconds
}

type interval struct{ start, end float64 }

// readSpans reads the kept records. The benchmark's own op spans are
// never recorded: the program's top-level spans are their children, and
// the time those cover counts as explained. For nested spans that union
// equals the sum of every span's self time (its duration minus the part
// its children cover), so the rest of an op is time no layer accounts
// for.
func (l *ledger) readSpans() (spans, error) {
	s := spans{byName: map[string]*spanStat{}}
	children := map[string][]interval{}
	dec := json.NewDecoder(bytes.NewReader(l.records))
	for {
		var rec traceRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return s, fmt.Errorf("trace record: %w", err)
		}
		switch rec.Event {
		case "span.end":
			st := s.byName[rec.Name]
			if st == nil {
				st = &spanStat{}
				s.byName[rec.Name] = st
			}
			st.n++
			st.total += rec.EndUS - rec.StartUS
			// Children end before their parent: once a span ends, only
			// the benchmark's ops still need their children's intervals.
			delete(children, rec.Span)
			if rec.Parent != "" {
				children[rec.Parent] = append(children[rec.Parent], interval{rec.StartUS, rec.EndUS})
			}
		case "runner.span":
			if rec.Outcome == "sim" {
				s.sims++
				s.queueMS += rec.QueueWaitMS
				s.executeMS += rec.ExecuteMS
			}
		}
	}
	for _, id := range l.opSpans {
		s.covered += union(children[id])
	}
	return s, nil
}

// union returns the length covered by a set of intervals.
func union(iv []interval) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	total, end := 0.0, 0.0
	for i, x := range iv {
		if i == 0 || x.start > end {
			total += x.end - x.start
			end = x.end
		} else if x.end > end {
			total += x.end - end
			end = x.end
		}
	}
	return total
}

// endOp closes one traced op whose span context the benchmark handed to
// the program.
func (l *ledger) endOp(sc telemetry.SpanContext, lat time.Duration, events uint64) {
	l.opSpans = append(l.opSpans, sc.Span.String())
	l.tracedOps = append(l.tracedOps, lat)
	l.simEvents += events
}

// timeAnalytical times one direct Analytical call per core, outside HTTP.
func (l *ledger) timeAnalytical(pred *model.Predictor, spec machine.Spec, program string, class workload.Class, cores []int) {
	start := time.Now()
	for _, n := range cores {
		pred.Analytical(spec, program, class, n)
	}
	l.modelTime += time.Since(start)
	l.modelCalls += len(cores)
}

// timeCurve times one direct AnalyticalCurve call over cores.
func (l *ledger) timeCurve(pred *model.Predictor, spec machine.Spec, program string, class workload.Class, cores []int) {
	start := time.Now()
	pred.AnalyticalCurve(spec, program, class, cores)
	l.curveTime += time.Since(start)
	l.curveCalls++
}

func (l *ledger) startProfile() {
	if err := pprof.StartCPUProfile(&l.profile); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile:", err)
	}
}

func (l *ledger) stopProfile() { pprof.StopCPUProfile() }

// layerMetrics assembles the traced run's per-layer metrics, the ones
// BENCHMARK.json lists under per_layer, and prints them as a table, each
// with the count it rests on. A layer the workload does not exercise
// reads 0.
func (b *bench) layerMetrics() (map[string]metric, error) {
	spec, err := readSpec()
	if err != nil {
		return nil, err
	}
	l := b.led
	sp, err := l.readSpans()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	traced := len(l.tracedOps)
	var opTime time.Duration
	for _, d := range l.tracedOps {
		opTime += d
	}
	mean := func(name string) (float64, int) {
		st := sp.byName[name]
		if st == nil {
			return 0, 0
		}
		return st.total / float64(st.n) / 1e3, st.n
	}
	spanLayer := func(metricName, spanName string) {
		v, n := mean(spanName)
		b.layer(metricName, v, "spans", n)
	}
	spanLayer("server.parse_ms", "server.parse")
	spanLayer("server.model_ms", "server.model")
	spanLayer("server.admit_ms", "server.admit")
	spanLayer("server.point_ms", "server.point")
	spanLayer("server.respond_ms", "server.respond")
	spanLayer("model.refit_ms", "model.refit")
	spanLayer("sim.run_ms", "runner.execute")

	// Request roots: server.request for predicts, server.curve for curves.
	roots, rootUS := 0, 0.0
	for _, name := range []string{"server.request", "server.curve"} {
		if st := sp.byName[name]; st != nil {
			roots += st.n
			rootUS += st.total
		}
	}
	reqMS := ratio(rootUS/1e3, float64(roots))
	b.layer("server.request_ms", reqMS, "spans", roots)
	if roots > 0 {
		b.layer("server.http_overhead_ms", msOf(opTime)/float64(traced)-reqMS, "ops", traced)
	}

	if st := sp.byName["runner.execute"]; st != nil {
		b.layer("sim.host_ns_per_event", ratio(st.total*1e3, float64(l.simEvents)), "events", int(l.simEvents))
	}
	b.layer("experiments.queue_wait_ms", ratio(sp.queueMS, float64(sp.sims)), "runs", sp.sims)
	b.layer("experiments.execute_ms", ratio(sp.executeMS, float64(traced)), "ops", traced)
	counter := func(name string) float64 { return float64(l.metrics.Counter(name).Value()) }
	b.layer("experiments.sim_total", ratio(counter("runner_sim_total"), float64(traced)), "ops", traced)
	b.layer("experiments.dedup_total", ratio(counter("runner_dedup_total"), float64(traced)), "ops", traced)
	b.layer("experiments.cache_total", ratio(counter("runner_cache_total"), float64(traced)), "ops", traced)
	b.layer("model.analytical_us", ratio(float64(l.modelTime.Nanoseconds())/1e3, float64(l.modelCalls)), "calls", l.modelCalls)
	b.layer("model.curve_us", ratio(float64(l.curveTime.Nanoseconds())/1e3, float64(l.curveCalls)), "calls", l.curveCalls)

	b.layer("ledger.unexplained_share", 1-ratio(sp.covered*1e3, float64(opTime)), "ops", traced)
	b.layer("ledger.trace_overhead", ratio(float64(median(l.tracedOps)), float64(median(b.ops)))-1, "ops", traced)

	if prof, err := decodeCPUProfile(l.profile.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile:", err)
	} else {
		for _, bk := range cpuBuckets {
			var n int64
			for _, p := range bk.pkgs {
				n += prof.byPkg[p]
			}
			b.layer(bk.name, ratio(float64(n), float64(prof.total)), "samples", int(prof.total))
		}
		b.layer("cpu.gc", ratio(float64(prof.gcWork), float64(prof.total)), "samples", int(prof.total))
	}

	out := make(map[string]metric, len(spec.PerLayer))
	fmt.Printf("%-26s %14s %-6s %s\n", "layer metric", "value", "unit", "base")
	for _, m := range spec.PerLayer {
		lm, ok := b.layers[m.Name]
		base := "not exercised"
		if ok {
			base = fmt.Sprintf("%d %s", lm.base, lm.baseName)
		}
		fmt.Printf("%-26s %14.6g %-6s %s\n", m.Name, lm.value, m.Unit, base)
		out[m.Name] = metric{lm.value, m.Unit}
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
