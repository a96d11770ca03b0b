package sim

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// testSpec returns a tiny 2-socket NUMA machine for fast tests.
func testSpec() machine.Spec {
	return machine.Spec{
		Name:           "test2x2",
		Sockets:        2,
		CoresPerSocket: 2,
		ClockGHz:       1.0,
		Levels: []machine.CacheLevel{
			{Config: cache.Config{Name: "L1", Size: 1 << 10, Line: 64, Ways: 2, Latency: 2}, Scope: machine.PerCore},
			{Config: cache.Config{Name: "L2", Size: 8 << 10, Line: 64, Ways: 4, Latency: 10}, Scope: machine.PerSocket},
		},
		MCsPerSocket: 1,
		MC: memctrl.Config{
			Channels: 1, Banks: 4, RowBytes: 2048, LineBytes: 64,
			HitLatency: 20, MissLatency: 60, Discipline: memctrl.FCFS,
		},
		HopLatency: 50,
		Links:      [][2]int{{0, 1}},
		MSHRs:      4,
	}
}

// umaSpec returns a tiny UMA machine with per-socket buses.
func umaSpec() machine.Spec {
	s := testSpec()
	s.Name = "testUMA"
	s.MCsPerSocket = 0
	s.Links = nil
	s.HopLatency = 0
	s.Bus = &machine.BusConfig{Occupancy: 8}
	return s
}

func singleStream(refs []trace.Ref) []trace.Stream {
	return []trace.Stream{trace.FromSlice(refs)}
}

func TestRunConfigValidation(t *testing.T) {
	spec := testSpec()
	if _, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 99}, singleStream(nil)); err == nil {
		t.Error("out-of-range cores accepted")
	}
	if _, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: 1}, singleStream(nil)); err == nil {
		t.Error("stream/thread mismatch accepted")
	}
	bad := spec
	bad.MSHRs = 0
	if _, err := Run(context.Background(), Config{Spec: bad, Threads: 1, Cores: 1}, singleStream(nil)); err == nil {
		t.Error("invalid machine accepted")
	}
}

// TestRunStopsStreamsOnError checks that a Run rejected before its event
// loop still stops its Gen streams, so no generator goroutine is left
// blocked holding its buffers.
func TestRunStopsStreamsOnError(t *testing.T) {
	badMachine := testSpec()
	badMachine.MSHRs = 0
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad-cores", Config{Spec: testSpec(), Threads: 4, Cores: 999}},
		{"bad-machine", Config{Spec: badMachine, Threads: 4, Cores: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exited := make(chan struct{}, tc.cfg.Threads)
			streams := make([]trace.Stream, tc.cfg.Threads)
			for i := range streams {
				streams[i] = trace.Gen(func(w *trace.Writer) {
					defer func() { exited <- struct{}{} }()
					for a := uint64(0); w.Emit(trace.Ref{Addr: a * 64}); a++ {
					}
				})
			}
			if _, err := Run(context.Background(), tc.cfg, streams); err == nil {
				t.Fatal("invalid config accepted")
			}
			deadline := time.After(10 * time.Second)
			for i := range streams {
				select {
				case <-exited:
				case <-deadline:
					t.Fatalf("%d of %d generators still running after Run returned", len(streams)-i, len(streams))
				}
			}
		})
	}
}

func TestEmptyStreamsFinish(t *testing.T) {
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec}, []trace.Stream{
		trace.FromSlice(nil), trace.FromSlice(nil), trace.FromSlice(nil), trace.FromSlice(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("empty run aborted")
	}
	if res.TotalCycles != 0 || res.OffChipRequests != 0 {
		t.Errorf("nonzero counters: %+v", res)
	}
}

func TestPureWorkAccounting(t *testing.T) {
	// 100 refs to one line, 10 work cycles each: one cold off-chip miss,
	// then 99 L1 hits with zero stall.
	var refs []trace.Ref
	for i := 0; i < 100; i++ {
		refs = append(refs, trace.Ref{Addr: 4096, Kind: trace.Load, Work: 10})
	}
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 1, Cores: 1}, singleStream(refs))
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkCycles != 1000 {
		t.Errorf("work = %d, want 1000", res.WorkCycles)
	}
	if res.OffChipRequests != 1 || res.LLCMisses != 1 {
		t.Errorf("off-chip = %d, llc = %d, want 1", res.OffChipRequests, res.LLCMisses)
	}
	if res.Instructions != 100+1000 {
		t.Errorf("instructions = %d", res.Instructions)
	}
	// Stall: cache traversal of the single miss (2+10=12). The miss is
	// independent (Dep=false) so the MC wait is overlapped, not stalled.
	if res.MemStallCycles != 0 {
		t.Errorf("mem stall = %d, want 0 for a single independent miss", res.MemStallCycles)
	}
	if res.TotalCycles != res.WorkCycles+res.StallCycles {
		t.Error("cycle identity violated")
	}
}

func TestDependentMissStalls(t *testing.T) {
	// A dependent cold miss must stall for at least the MC service time.
	refs := []trace.Ref{{Addr: 1 << 20, Kind: trace.Load, Dep: true, Work: 1}}
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 1, Cores: 1}, singleStream(refs))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemStallCycles < 60 {
		t.Errorf("mem stall = %d, want >= 60 (MC miss service)", res.MemStallCycles)
	}
	if res.PerThread[0].OffChip != 1 {
		t.Errorf("off-chip = %d", res.PerThread[0].OffChip)
	}
}

func TestMLPBeatsDependentChain(t *testing.T) {
	// Equal miss counts; the dependent chain must take far longer than the
	// independent stream that exploits MSHRs.
	mkRefs := func(dep bool) []trace.Ref {
		var refs []trace.Ref
		for i := 0; i < 200; i++ {
			// Stride 4096+64 so consecutive requests rotate across the
			// controller's channels instead of aliasing onto one.
			refs = append(refs, trace.Ref{Addr: uint64(i) * 4160, Kind: trace.Load, Dep: dep, Work: 1})
		}
		return refs
	}
	// Plenty of channels so the comparison is latency- vs overlap-bound,
	// not bandwidth-bound.
	spec := testSpec()
	spec.MC.Channels = 4
	dep, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 1}, singleStream(mkRefs(true)))
	if err != nil {
		t.Fatal(err)
	}
	indep, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 1}, singleStream(mkRefs(false)))
	if err != nil {
		t.Fatal(err)
	}
	if dep.OffChipRequests != indep.OffChipRequests {
		t.Fatalf("miss counts differ: %d vs %d", dep.OffChipRequests, indep.OffChipRequests)
	}
	if indep.TotalCycles*2 > dep.TotalCycles {
		t.Errorf("independent %d cycles vs dependent %d: MLP should be at least 2x faster",
			indep.TotalCycles, dep.TotalCycles)
	}
}

func TestEveryRefMissesWhenFootprintHuge(t *testing.T) {
	refs := strideLoads(0, 4096, 500, false, 2)
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 1, Cores: 1}, singleStream(refs))
	if err != nil {
		t.Fatal(err)
	}
	if res.OffChipRequests != 500 {
		t.Errorf("off-chip = %d, want 500", res.OffChipRequests)
	}
	if res.LLCMisses != 500 {
		t.Errorf("LLC misses = %d, want 500", res.LLCMisses)
	}
}

// strideLoads returns count loads starting at base, stride bytes apart,
// each preceded by work cycles; dep marks each load dependent on the last.
func strideLoads(base, stride uint64, count int, dep bool, work uint32) []trace.Ref {
	refs := make([]trace.Ref, count)
	for i := range refs {
		refs[i] = trace.Ref{Addr: base + uint64(i)*stride, Kind: trace.Load, Dep: dep, Work: work}
	}
	return refs
}

// memBoundStreams builds T streams of dependent loads over disjoint
// regions, all missing.
func memBoundStreams(threads, missesEach int) []trace.Stream {
	var streams []trace.Stream
	for t := 0; t < threads; t++ {
		base := uint64(t) << 30
		streams = append(streams, trace.FromSlice(strideLoads(base, 4096, missesEach, true, 2)))
	}
	return streams
}

func TestContentionGrowsTotalCycles(t *testing.T) {
	// Same total work, more active cores sharing one socket's MC: queueing
	// makes total (summed) cycles grow — the paper's core observation.
	spec := testSpec()
	run := func(cores int) Result {
		res, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: cores}, memBoundStreams(2, 400))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	c1 := run(1)
	c2 := run(2)
	if c2.TotalCycles <= c1.TotalCycles {
		t.Errorf("C(2)=%d should exceed C(1)=%d under contention", c2.TotalCycles, c1.TotalCycles)
	}
	// Work cycles must be (nearly) independent of core count.
	if c1.WorkCycles != c2.WorkCycles {
		t.Errorf("work cycles changed: %d vs %d", c1.WorkCycles, c2.WorkCycles)
	}
	// Miss counts must be (nearly) independent of core count.
	if c1.OffChipRequests != c2.OffChipRequests {
		t.Errorf("off-chip changed: %d vs %d", c1.OffChipRequests, c2.OffChipRequests)
	}
	// But wall-clock should still improve with parallelism.
	if c2.Makespan >= c1.Makespan {
		t.Errorf("makespan did not improve: %d vs %d", c2.Makespan, c1.Makespan)
	}
}

func TestFirstTouchKeepsAccessesLocal(t *testing.T) {
	// Threads pinned on socket 0 only; first-touch places pages on MC 0:
	// zero remote requests.
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: 2}, memBoundStreams(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteRequests != 0 {
		t.Errorf("remote = %d, want 0 for single-socket first-touch", res.RemoteRequests)
	}
	if res.MCStats[1].Requests != 0 {
		t.Errorf("MC1 served %d requests, want 0", res.MCStats[1].Requests)
	}
}

func TestInterleaveUsesAllActiveMCs(t *testing.T) {
	spec := testSpec()
	res, err := Run(context.Background(), Config{
		Spec: spec, Threads: 4, Cores: 4, Placement: Interleave,
	}, memBoundStreams(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.MCStats[0].Requests == 0 || res.MCStats[1].Requests == 0 {
		t.Errorf("interleave left an MC idle: %+v", res.MCStats)
	}
	if res.RemoteRequests == 0 {
		t.Error("interleave across sockets should produce remote requests")
	}
}

func TestSecondSocketAddsRemoteTraffic(t *testing.T) {
	// 4 threads on 4 cores (both sockets, first-touch): threads on socket 1
	// home their pages on MC 1 and everything stays local; verify instead
	// that socket-1 MC actually serves requests (fill-first activation).
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4}, memBoundStreams(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.MCStats[1].Requests == 0 {
		t.Error("second socket's MC idle despite active cores")
	}
}

func TestOversubscriptionCompletes(t *testing.T) {
	// 4 threads on 1 core: round-robin multiplexing must finish all threads
	// and count each thread's misses.
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 1, Quantum: 500}, memBoundStreams(4, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	for i, th := range res.PerThread {
		if th.OffChip != 50 {
			t.Errorf("thread %d off-chip = %d, want 50", i, th.OffChip)
		}
		if th.Finish == 0 {
			t.Errorf("thread %d has no finish time", i)
		}
	}
}

func TestUMABusPath(t *testing.T) {
	spec := umaSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4}, memBoundStreams(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BusStats) != 2 {
		t.Fatalf("bus stats = %d entries", len(res.BusStats))
	}
	if res.BusStats[0].Requests == 0 || res.BusStats[1].Requests == 0 {
		t.Errorf("buses idle: %+v", res.BusStats)
	}
	if res.RemoteRequests != 0 {
		t.Errorf("UMA should have no remote requests, got %d", res.RemoteRequests)
	}
	if res.MCStats[0].Requests != res.OffChipRequests {
		t.Errorf("MC served %d of %d requests", res.MCStats[0].Requests, res.OffChipRequests)
	}
}

// TestMissWindowsProperty checks the LLC-miss window series against the
// run's own counters: the windows sum to OffChipRequests, the series runs
// through the later of the last miss's window and the window holding cycle
// Makespan-1, coarser windows are exact sums of finer ones, counting
// perturbs nothing else, and the series is nil when the window is off.
func TestMissWindowsProperty(t *testing.T) {
	spec := testSpec()
	run := func(threads int, window uint64) Result {
		t.Helper()
		res, err := Run(context.Background(), Config{
			Spec: spec, Threads: threads, Cores: threads, MissWindow: window,
		}, memBoundStreams(threads, 50))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, threads := range []int{1, 2, 4} {
		off := run(threads, 0)
		if off.MissWindows != nil {
			t.Fatalf("threads=%d: MissWindows = %v with the window off, want nil", threads, off.MissWindows)
		}
		fine := run(threads, 10)
		for _, window := range []uint64{1, 10, 30, 997, 1 << 40} {
			res := run(threads, window)
			var sum uint64
			last := uint64(0)
			for i, n := range res.MissWindows {
				sum += n
				if n > 0 {
					last = uint64(i)
				}
			}
			if sum != res.OffChipRequests || sum == 0 {
				t.Errorf("threads=%d window=%d: windows sum to %d, OffChipRequests %d",
					threads, window, sum, res.OffChipRequests)
			}
			if want := max(last, (res.Makespan-1)/window) + 1; uint64(len(res.MissWindows)) != want {
				t.Errorf("threads=%d window=%d: %d windows, want %d (makespan %d)",
					threads, window, len(res.MissWindows), want, res.Makespan)
			}
			if window%10 == 0 {
				k := int(window / 10)
				for i, n := range res.MissWindows {
					var folded uint64
					for j := i * k; j < (i+1)*k && j < len(fine.MissWindows); j++ {
						folded += fine.MissWindows[j]
					}
					if n != folded {
						t.Fatalf("threads=%d window=%d: window %d holds %d, the 10-cycle windows fold to %d",
							threads, window, i, n, folded)
					}
				}
			}
			res.MissWindows = nil
			if !reflect.DeepEqual(res, off) {
				t.Errorf("threads=%d window=%d: counting miss windows changed the result", threads, window)
			}
		}
	}
}

// gapStream is one thread that misses at addr 0, retires gap cycles of work,
// misses at a distant address, then retires tail cycles on an L1 hit, so the
// run has a quiet stretch between its two misses and after the last one.
func gapStream(gap, tail uint32) []trace.Stream {
	return singleStream([]trace.Ref{
		{Addr: 0, Kind: trace.Load, Dep: true},
		{Addr: 1 << 30, Kind: trace.Load, Dep: true, Work: gap},
		{Addr: 0, Kind: trace.Load, Work: tail},
	})
}

// missTimes runs cfg with one-cycle windows and returns each off-chip
// request's issue cycle, in order.
func missTimes(t *testing.T, cfg Config, streams []trace.Stream) []uint64 {
	t.Helper()
	cfg.MissWindow = 1
	res, err := Run(context.Background(), cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	var times []uint64
	for now, n := range res.MissWindows {
		for ; n > 0; n-- {
			times = append(times, uint64(now))
		}
	}
	return times
}

// TestMissWindowsBinning checks that window i counts exactly the requests
// issued in cycles [i*w, (i+1)*w), for windows that do not divide each other.
func TestMissWindowsBinning(t *testing.T) {
	// A thread's first miss issues once its leading work retires, which
	// pins absolute cycles at the window boundaries.
	for _, work := range []uint32{99, 100, 250} {
		res, err := Run(context.Background(), Config{
			Spec: testSpec(), Threads: 1, Cores: 1, MissWindow: 100,
		}, singleStream([]trace.Ref{{Addr: 0, Kind: trace.Load, Work: work}}))
		if err != nil {
			t.Fatal(err)
		}
		i := work / 100
		if uint32(len(res.MissWindows)) <= i || res.MissWindows[i] != 1 {
			t.Errorf("miss at cycle %d: MissWindows = %v, want it in window %d", work, res.MissWindows, i)
		}
	}
	cfg := Config{Spec: testSpec(), Threads: 2, Cores: 2}
	times := missTimes(t, cfg, memBoundStreams(2, 30))
	if len(times) != 60 {
		t.Fatalf("%d misses recorded, want 60", len(times))
	}
	for _, window := range []uint64{7, 100, 997} {
		cfg.MissWindow = window
		res, err := Run(context.Background(), cfg, memBoundStreams(2, 30))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(res.MissWindows))
		for _, now := range times {
			want[now/window]++
		}
		if !reflect.DeepEqual(res.MissWindows, want) {
			t.Errorf("window=%d: MissWindows = %v, binning the issue cycles gives %v", window, res.MissWindows, want)
		}
	}
}

// TestMissWindowsInteriorEmptyKept checks that quiet windows between two
// misses stay in the series as zeros, so window indices remain time.
func TestMissWindowsInteriorEmptyKept(t *testing.T) {
	cfg := Config{Spec: testSpec(), Threads: 1, Cores: 1}
	times := missTimes(t, cfg, gapStream(1000, 0))
	if len(times) != 2 || times[1]-times[0] < 1000 {
		t.Fatalf("miss times = %v, want two misses at least 1000 cycles apart", times)
	}
	cfg.MissWindow = 10
	res, err := Run(context.Background(), cfg, gapStream(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	first, second := times[0]/10, times[1]/10
	if uint64(len(res.MissWindows)) <= second {
		t.Fatalf("%d windows, the second miss is in window %d", len(res.MissWindows), second)
	}
	for i, n := range res.MissWindows[:second+1] {
		want := uint64(0)
		if uint64(i) == first || uint64(i) == second {
			want = 1
		}
		if n != want {
			t.Errorf("window %d holds %d, want %d", i, n, want)
		}
	}
}

// TestMissWindowsPadToMakespan checks that the series runs through the
// window holding cycle Makespan-1 when the run ends well after its last
// miss, and that the windows past the last miss are zero.
func TestMissWindowsPadToMakespan(t *testing.T) {
	cfg := Config{Spec: testSpec(), Threads: 1, Cores: 1}
	times := missTimes(t, cfg, gapStream(0, 5000))
	if len(times) != 2 {
		t.Fatalf("miss times = %v, want two misses", times)
	}
	run := func(window uint64) Result {
		t.Helper()
		cfg.MissWindow = window
		res, err := Run(context.Background(), cfg, gapStream(0, 5000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(10)
	if res.Makespan < times[1]+5000 {
		t.Fatalf("makespan %d ends before the tail work after cycle %d", res.Makespan, times[1])
	}
	if want := (res.Makespan-1)/10 + 1; uint64(len(res.MissWindows)) != want {
		t.Errorf("%d windows, want %d (makespan %d)", len(res.MissWindows), want, res.Makespan)
	}
	for i, n := range res.MissWindows[times[1]/10+1:] {
		if n != 0 {
			t.Errorf("padding window %d holds %d", int(times[1]/10)+1+i, n)
		}
	}
	// Boundaries: a window of Makespan cycles holds the whole run; one of
	// Makespan-1 cycles leaves the last cycle in a second window.
	if got := len(run(res.Makespan).MissWindows); got != 1 {
		t.Errorf("window=makespan: %d windows, want 1", got)
	}
	if got := len(run(res.Makespan - 1).MissWindows); got != 2 {
		t.Errorf("window=makespan-1: %d windows, want 2", got)
	}
}

// TestMissWindowsTotalConservation checks, over random thread counts, miss
// counts and windows, that the windows sum to the run's OffChipRequests.
func TestMissWindowsTotalConservation(t *testing.T) {
	spec := testSpec()
	f := func(threads, misses uint8, window uint16) bool {
		n := 1 + int(threads)%4
		res, err := Run(context.Background(), Config{
			Spec: spec, Threads: n, Cores: n, MissWindow: 1 + uint64(window),
		}, memBoundStreams(n, 1+int(misses)%40))
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, c := range res.MissWindows {
			sum += c
		}
		return sum == res.OffChipRequests && sum > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMSHRLimitBlocks(t *testing.T) {
	// Independent misses beyond the MSHR count must still finish, and with
	// MSHRs=1 the behavior approaches the dependent chain.
	spec := testSpec()
	spec.MSHRs = 1
	refs := strideLoads(0, 4096, 100, false, 1)
	res1, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 1}, singleStream(refs))
	if err != nil {
		t.Fatal(err)
	}
	spec.MSHRs = 8
	refs = strideLoads(0, 4096, 100, false, 1)
	res8, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 1}, singleStream(refs))
	if err != nil {
		t.Fatal(err)
	}
	if res1.MemStallCycles <= res8.MemStallCycles {
		t.Errorf("MSHRs=1 stall %d should exceed MSHRs=8 stall %d",
			res1.MemStallCycles, res8.MemStallCycles)
	}
	if res1.Aborted || res8.Aborted {
		t.Error("runs aborted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	spec := testSpec()
	streams := memBoundStreams(spec.TotalCores(), 10)
	res, err := Run(context.Background(), Config{Spec: spec}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 4 || res.Cores != 4 {
		t.Errorf("defaults: threads=%d cores=%d", res.Threads, res.Cores)
	}
}

func TestPlacementString(t *testing.T) {
	if FirstTouch.String() != "first-touch" || Interleave.String() != "interleave" || Placement(7).String() != "unknown" {
		t.Error("placement strings wrong")
	}
}
