// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object with the run's correctness verdict and
// its metrics. BENCHMARK.json at the repository root lists the workloads,
// why each exists, and every metric with its unit.
//
// Workloads:
//
//	sweep_uma         Fig. 3: CG.C on IntelUMA8, one cold Runner.Run point per op
//	curve_amd_cold    a fresh in-process simserved answers one streamed
//	                  /v1/curve for SP.C on AMDNUMA48 per op
//	serve_analytical  a warmed in-process simserved; one closed-loop client
//	                  connection sends a seeded predict/curve mix
//
// With --trace 0 the run prints the end-to-end metrics, measured untraced.
// Its times are process CPU times, user and system over every thread,
// scaled by a calibration loop run between ops to a reference host speed
// (see hostspeed.go). On a shared virtual host the wall time of an op also
// holds the time the hypervisor gives other guests, which can move by a
// third between runs an hour apart; a guest kernel that accounts steal
// time leaves that out of CPU time.
// With --trace 1 it prints the per-layer ledger instead: it switches on the
// program's tracer, runner metrics and a CPU profile, traces every other op
// and compares traced with untraced ops for the trace overhead.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep_uma --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --spread 10 --workload serve_analytical --seconds 20
//	bash perfbench/run.sh --write-reference
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up at least setupRepeats times and until the
// set-ups have used setupCPU of CPU time; setup_s is the median of their
// scaled CPU times. A cheap set-up thus repeats often enough that its
// median does not rest on a few short samples.
const (
	setupRepeats = 5
	setupCPU     = 2 * time.Second
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: sweep_uma, curve_amd_cold or serve_analytical")
		seed     = flag.Int64("seed", 1, "seed drawing the workload's inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 prints the traced per-layer ledger instead of the end-to-end metrics")
		spreadN  = flag.Int("spread", 0, "run the workload this many times with consecutive seeds and report each metric's quartiles")
		writeRef = flag.Bool("write-reference", false, "simulate every reference point and rewrite perfbench/reference.json")
	)
	flag.Parse()
	// Every workload runs one op at a time, so one P runs it. With more,
	// idle Ps run garbage-collector workers and spin for work, which adds
	// CPU time that follows host timing rather than the code.
	runtime.GOMAXPROCS(1)
	var err error
	switch {
	case *writeRef:
		err = writeReference("perfbench/reference.json")
	case *spreadN > 0:
		err = spread(*name, *spreadN, *seed, *seconds)
	default:
		err = runOnce(*name, *seed, *seconds, *traceOn == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(b *bench) error{
	"sweep_uma":        runSweep,
	"curve_amd_cold":   runCurve,
	"serve_analytical": runServe,
}

func runOnce(name string, seed int64, seconds float64, traced bool) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have sweep_uma, curve_amd_cold, serve_analytical)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	b := &bench{
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		rng:    rand.New(rand.NewSource(seed)),
		group:  1,
		layers: map[string]layerMetric{},
	}
	if traced {
		b.led = newLedger()
	}
	err := run(b)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if b.attempted == 0 {
		return fmt.Errorf("%s: no op completed", name)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
	}
	if traced {
		res.Metrics, err = b.layerMetrics()
		if err != nil {
			return err
		}
	} else {
		res.Metrics = b.endToEnd()
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload run: its seeded inputs, the timed ops and what
// they measured.
type bench struct {
	seed   int64
	window time.Duration
	rng    *rand.Rand
	led    *ledger // non-nil in a traced run

	// group is the number of ops that make one whole round of the
	// workload's inputs. The timed phase ends on a whole round, so it
	// holds the workload's mix of ops exactly.
	group int

	setups     []time.Duration // CPU time of each set-up
	setupSpeed *hostSpeed      // host speed over the set-ups
	ops        []time.Duration // a traced run's untraced op latencies
	cpu        time.Duration   // process CPU time of the timed phase's ops
	opSpeed    *hostSpeed      // host speed over the timed phase
	attempted  int
	failed     int

	// layers holds the per-layer metrics a workload measures itself.
	layers map[string]layerMetric
}

// opResult is what one timed op reports.
type opResult struct {
	lat time.Duration // op latency
	err error         // a failed op: transport error, bad status, wrong tier or wrong answer
}

// setup runs fn as often as setupRepeats and setupCPU ask and records
// the CPU time of each run; fn leaves the state the timed phase uses.
func (b *bench) setup(fn func() error) error {
	var total time.Duration
	b.setupSpeed = newHostSpeed()
	for len(b.setups) < setupRepeats || total < setupCPU {
		start := cpuTime()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := cpuTime() - start
		b.setups = append(b.setups, d)
		total += d
		b.setupSpeed.sample()
	}
	return nil
}

// cpuTime returns the CPU time this process has used, user and system,
// over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs ops until the measurement window closes and the current
// round of b.group ops is complete. An untraced run samples the host's
// speed between ops; a traced run does not, so its CPU profile holds only
// the program. In a traced run every second op is traced, so the ledger
// can compare traced with untraced ops of the same run.
func (b *bench) timed(op func(i int, traced bool) opResult) {
	var before runtime.MemStats
	if b.led != nil {
		runtime.ReadMemStats(&before)
		b.led.startProfile()
	}
	// A traced run makes at least two ops, so at least one is traced.
	minOps := 1
	if b.led != nil {
		minOps = 2
	}
	b.opSpeed = newHostSpeed()
	var calib time.Duration
	start, startCPU := time.Now(), cpuTime()
	for i := 0; i < minOps || time.Since(start) < b.window || i%b.group != 0; i++ {
		traced := b.led != nil && i%2 == 1
		r := op(i, traced)
		if b.led == nil && b.opSpeed.due() {
			calib += b.opSpeed.sample()
		}
		b.attempted++
		if r.err != nil {
			b.failed++
			if b.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, r.err)
			}
			continue
		}
		// Only a traced run keeps latencies, for the ledger's trace
		// overhead: a list that grows with every op would show in the
		// untraced run's peak RSS.
		if b.led != nil && !traced {
			b.ops = append(b.ops, r.lat)
		}
	}
	if b.led == nil {
		calib += b.opSpeed.sample()
	}
	b.cpu = cpuTime() - startCPU - calib
	if b.led != nil {
		b.led.stopProfile()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ops := float64(b.attempted)
		b.layer("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/ops, "ops", b.attempted)
		b.layer("runtime.gc_cycles", float64(after.NumGC-before.NumGC)/ops, "ops", b.attempted)
	}
}

// endToEnd assembles the untraced run's end-to-end metrics. op_cpu_ms is
// the timed phase's scaled CPU time over its ops: the host's speed for the
// same work wanders from one op to the next, and a mean over the whole
// phase averages that out where a median of parts would pick one part.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {b.setupSpeed.scale(median(b.setups)).Seconds(), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"op_cpu_ms":   {msOf(b.opSpeed.scale(b.cpu)) / float64(b.attempted), "ms"},
	}
}

// median returns the middle of ds (the mean of the two middle values for
// an even count), 0 for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// revision is the source revision stamped into the binary by the Go
// toolchain, or "unknown" when the build saw no version control.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// spread runs one workload n times, one process per run with seeds
// seed..seed+n-1, and prints each end-to-end metric's median, quartiles
// and interquartile spread as a share of the median, against the bound
// BENCHMARK.json gives it.
func spread(name string, n int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run with seed %d: %d of %d ops failed", s, res.Failed, res.Attempted)
		}
		fmt.Fprintf(os.Stderr, "perfbench: seed %d: %s\n", s, lines[len(lines)-1])
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-18s %-5s %14s %14s %14s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		sp := (q3 - q1) / med
		fmt.Printf("%-18s %-5s %14.6g %14.6g %14.6g %8.4f %6.3g\n", k, units[k], med, q1, q3, sp, bounds[k])
	}
	return nil
}

// specMetric is one metric BENCHMARK.json lists.
type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// readSpec reads the metric lists of BENCHMARK.json, which the benchmark
// is run next to.
func readSpec() (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// quartiles returns the three cut points of vs into four groups by the
// exclusive method, as Python's statistics.quantiles(vs, n=4) computes
// them.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
