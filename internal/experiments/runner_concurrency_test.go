package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingSim installs a fake simulation backend on r that records how
// many times each key executes and returns a deterministic result derived
// from the key. It returns the per-key counter map (guarded by mu).
func countingSim(r *Runner, delay time.Duration) (counts map[RunKey]*int64, mu *sync.Mutex) {
	counts = make(map[RunKey]*int64)
	mu = &sync.Mutex{}
	r.simulate = func(_ context.Context, it RunItem) (sim.Result, error) {
		key := r.keyOf(it)
		mu.Lock()
		c, ok := counts[key]
		if !ok {
			c = new(int64)
			counts[key] = c
		}
		mu.Unlock()
		atomic.AddInt64(c, 1)
		if delay > 0 {
			time.Sleep(delay)
		}
		if it.Program == "bad" {
			return sim.Result{}, fmt.Errorf("experiments: no such program")
		}
		return sim.Result{
			MachineName: it.Spec.Name,
			Cores:       it.Cores,
			TotalCycles: uint64(1000 * it.Cores),
			LLCMisses:   uint64(10 * it.Cores),
		}, nil
	}
	return counts, mu
}

// TestSingleflightDedup drives many goroutines through overlapping sweeps
// and asserts exactly one underlying simulation per distinct key.
func TestSingleflightDedup(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 8
	counts, mu := countingSim(r, 2*time.Millisecond)
	spec := machine.IntelUMA8()

	// Overlapping sweeps: every goroutine shares counts {1,2,4} and adds
	// one private count, so both duplicate and unique keys are in flight.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := r.Sweep(context.Background(), spec, "CG", workload.W, []int{1, 2, 4, 1 + g%8}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(counts) == 0 {
		t.Fatal("no simulations executed")
	}
	for key, c := range counts {
		if n := atomic.LoadInt64(c); n != 1 {
			t.Errorf("key %+v simulated %d times, want 1", key, n)
		}
	}
}

// TestDoubleSimulateRaceRegression pins the historical bug where the cache
// check unlocked before simulating: two goroutines missing the same key
// both executed the run. The singleflight layer must coalesce them.
func TestDoubleSimulateRaceRegression(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 4
	counts, mu := countingSim(r, 10*time.Millisecond)
	spec := machine.IntelUMA8()

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]sim.Result, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := r.Run(context.Background(), spec, "CG", workload.W, 2)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	close(start)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(counts) != 1 {
		t.Fatalf("distinct keys executed = %d, want 1", len(counts))
	}
	for key, c := range counts {
		if n := atomic.LoadInt64(c); n != 1 {
			t.Errorf("key %+v simulated %d times, want exactly 1", key, n)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("racing goroutines observed different results")
	}
}

// TestConcurrentMatchesSerial checks the determinism contract end to end
// on the real simulator: a parallel runner must produce results identical
// to a serial one, for Run, Sweep and RunAll alike.
func TestConcurrentMatchesSerial(t *testing.T) {
	spec := machine.IntelUMA8()
	counts := []int{1, 2, 4, 8}

	serial := NewRunner(quickTune)
	serial.Jobs = 1
	wantMeas, err := serial.Sweep(context.Background(), spec, "CG", workload.W, counts)
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewRunner(quickTune)
	parallel.Jobs = 8
	// Submit the sweep twice concurrently plus the raw plan, all at once.
	w1 := parallel.SweepAsync(context.Background(), spec, "CG", workload.W, counts)
	w2 := parallel.SweepAsync(context.Background(), spec, "CG", workload.W, counts)
	plan := make([]RunItem, len(counts))
	for i, n := range counts {
		plan[i] = RunItem{Spec: spec, Program: "CG", Class: workload.W, Cores: n}
	}
	results, err := parallel.RunAll(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := w1()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := w2()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(wantMeas, got1) || !reflect.DeepEqual(got1, got2) {
		t.Errorf("parallel sweep differs from serial:\nserial  %+v\nparallel %+v", wantMeas, got1)
	}
	for i, n := range counts {
		res, err := serial.Run(context.Background(), spec, "CG", workload.W, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, results[i]) {
			t.Errorf("RunAll[%d] (n=%d) differs from serial Run", i, n)
		}
	}
}

// TestRunAllOrderAndErrors checks plan-order results and deterministic
// error reporting (first failure in plan order).
func TestRunAllOrderAndErrors(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 4
	countingSim(r, 0)
	spec := machine.IntelUMA8()

	plan := []RunItem{
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 4},
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 1},
		{Spec: spec, Program: "CG", Class: workload.W, Cores: 4}, // duplicate
	}
	results, err := r.RunAll(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Cores != 4 || results[1].Cores != 1 || results[2].Cores != 4 {
		t.Errorf("results out of plan order: %+v", results)
	}
	if !reflect.DeepEqual(results[0], results[2]) {
		t.Error("duplicate plan items returned different results")
	}

	plan = append(plan, RunItem{Spec: spec, Program: "bad", Class: workload.W, Cores: 1})
	if _, err := r.RunAll(context.Background(), plan); err == nil {
		t.Error("RunAll swallowed an item error")
	}
}

// TestProgressConcurrent checks that the progress writer sees one whole
// line per executed run (no interleaving) with the completed/total counter.
func TestProgressConcurrent(t *testing.T) {
	r := NewRunner(quickTune)
	r.Jobs = 8
	countingSim(r, time.Millisecond)
	var buf bytes.Buffer
	r.Progress = &buf
	spec := machine.IntelUMA8()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := r.Run(context.Background(), spec, "CG", workload.W, 1+g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("progress lines = %d, want 8:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "[") || !strings.Contains(line, "run IntelUMA8") {
			t.Errorf("malformed progress line: %q", line)
		}
	}
	if !strings.Contains(buf.String(), "[8/8]") {
		t.Errorf("final completed/total counter missing:\n%s", buf.String())
	}
	completed, submitted := simCounts(r)
	if completed != 8 || submitted != 8 {
		t.Errorf("counters = %d/%d, want 8/8", completed, submitted)
	}
}

// TestRunJobsBounded checks that Run honors the Jobs bound (no more than
// Jobs simulations at once).
func TestRunJobsBounded(t *testing.T) {
	r := NewRunner(workload.Tuning{RefScale: 0.02})
	r.Jobs = 2
	spec := machine.IntelUMA8()

	var active, peak int64
	var mu sync.Mutex
	r.simulate = func(context.Context, RunItem) (sim.Result, error) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return sim.Result{}, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct keys so every call truly executes.
			if _, err := r.Run(context.Background(), spec, "CG", workload.W, 1+g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Errorf("peak concurrent simulations = %d, want <= Jobs=2", peak)
	}
}

// BenchmarkRunnerMatrix measures a multi-figure style run matrix (fresh
// runner per iteration, so nothing is cached) at several worker-pool
// widths. On a 4+-core host jobs=4 should cut wall-clock time by >=2x
// versus jobs=1; on a single-core host the times converge.
func BenchmarkRunnerMatrix(b *testing.B) {
	spec := machine.IntelUMA8()
	plan := make([]RunItem, 0, 16)
	for _, prog := range []string{"EP", "IS", "CG", "SP"} {
		for _, n := range []int{1, 2, 4, 8} {
			plan = append(plan, RunItem{Spec: spec, Program: prog, Class: workload.W, Cores: n})
		}
	}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRunner(workload.Tuning{RefScale: 0.05})
				r.Jobs = jobs
				if _, err := r.RunAll(context.Background(), plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
