package sim

import (
	"context"

	"testing"

	"repro/internal/trace"
)

// barrierStream builds a stream of `iters` iterations, each `work` cycles
// of cache-resident computation followed by a barrier. scratch gives each
// thread a private resident line.
func barrierStream(scratch uint64, iters int, work uint32) trace.Stream {
	var refs []trace.Ref
	for i := 0; i < iters; i++ {
		refs = append(refs, trace.Ref{Addr: scratch, Kind: trace.Load, Work: work})
		refs = append(refs, trace.Ref{Sync: true})
	}
	return trace.FromSlice(refs)
}

func TestBarrierSynchronizesUnevenThreads(t *testing.T) {
	// Thread 0 does 10x the work per iteration; thread 1 must wait at every
	// barrier and accumulate sync stall ~= the difference.
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: 2}, []trace.Stream{
		barrierStream(0, 5, 1000),
		barrierStream(1<<20, 5, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	fast := res.PerThread[1]
	slow := res.PerThread[0]
	if fast.SyncStall == 0 {
		t.Error("fast thread accumulated no sync stall")
	}
	if slow.SyncStall > fast.SyncStall/2 {
		t.Errorf("slow thread sync stall %d should be far below fast thread's %d",
			slow.SyncStall, fast.SyncStall)
	}
	// Expect roughly 5 * 900 cycles of waiting for the fast thread.
	if fast.SyncStall < 4000 || fast.SyncStall > 6500 {
		t.Errorf("fast thread sync stall = %d, want ~4500", fast.SyncStall)
	}
	// Sync stall is excluded from the cycle counters (blocking barrier):
	// both threads retire the same work, so their Cycles must be close
	// despite the waiting.
	if fast.Cycles() > slow.Cycles() {
		t.Errorf("fast thread cycles %d exceed slow thread's %d — barrier wait leaked into cycles",
			fast.Cycles(), slow.Cycles())
	}
}

func TestBarrierFinishedThreadsDoNotDeadlock(t *testing.T) {
	// Thread 0 has fewer barriers than thread 1: once it finishes, its
	// absence must not block thread 1's remaining barriers.
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: 2}, []trace.Stream{
		barrierStream(0, 2, 100),
		barrierStream(1<<20, 6, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("run did not complete")
	}
	for i, th := range res.PerThread {
		if th.Finish == 0 {
			t.Errorf("thread %d never finished", i)
		}
	}
}

func TestBarrierWithOversubscription(t *testing.T) {
	// 4 threads on 1 core: a thread waiting at a barrier must yield the
	// core so its siblings can reach the barrier too (otherwise deadlock).
	spec := testSpec()
	streams := make([]trace.Stream, 4)
	for i := range streams {
		streams[i] = barrierStream(uint64(i)<<22, 8, 200)
	}
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 1, Quantum: 100000}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("oversubscribed barrier run deadlocked")
	}
	if res.SyncStallCycles == 0 {
		t.Error("expected some sync stall")
	}
}

func TestBarrierKeepsThreadsInLockstep(t *testing.T) {
	// With barriers, per-iteration miss bursts from all threads must
	// cluster in time. Build threads whose per-iteration phase has
	// different length but identical barrier structure, record miss times,
	// and check that misses from different threads interleave closely.
	spec := testSpec()
	mkStream := func(t int) trace.Stream {
		var refs []trace.Ref
		for i := 0; i < 6; i++ {
			// Cache-resident compute whose length differs per thread.
			refs = append(refs, trace.Ref{Addr: uint64(t) << 22, Kind: trace.Load, Work: uint32(500 + 300*t)})
			// One fresh off-chip miss per iteration per thread.
			refs = append(refs, trace.Ref{Addr: uint64(t)<<30 | uint64(i)<<12, Kind: trace.Load, Work: 1})
			refs = append(refs, trace.Ref{Sync: true})
		}
		return trace.FromSlice(refs)
	}
	// One-cycle miss windows record every miss's issue time.
	res, err := Run(context.Background(), Config{
		Spec: spec, Threads: 4, Cores: 4, MissWindow: 1,
	}, []trace.Stream{mkStream(0), mkStream(1), mkStream(2), mkStream(3)})
	if err != nil {
		t.Fatal(err)
	}
	var missTimes []uint64
	for now, n := range res.MissWindows {
		for ; n > 0; n-- {
			missTimes = append(missTimes, uint64(now))
		}
	}
	// 4 threads x 6 iterations x 1 fresh miss (plus cold scratch misses).
	if len(missTimes) < 24 {
		t.Fatalf("only %d misses recorded", len(missTimes))
	}
	// The slowest thread's iteration takes ~1400+ cycles; without barriers
	// thread 0 (500/iter) would finish all its misses long before thread 3
	// started its later iterations. With barriers, the per-iteration bursts
	// cluster: the largest gap between consecutive misses should be on the
	// order of an iteration, and the whole run should span ~6 iterations of
	// the slowest thread.
	span := missTimes[len(missTimes)-1] - missTimes[0]
	if span < 5*1400 {
		t.Errorf("miss span %d too small — threads not iterating together", span)
	}
}

func TestSyncRefCountsAsInstruction(t *testing.T) {
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 1, Cores: 1}, []trace.Stream{
		trace.FromSlice([]trace.Ref{{Sync: true, Work: 7}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkCycles != 7 {
		t.Errorf("work = %d, want 7", res.WorkCycles)
	}
	if res.Instructions != 8 {
		t.Errorf("instructions = %d, want 8", res.Instructions)
	}
	// Single thread: the barrier releases immediately.
	if res.SyncStallCycles != 0 {
		t.Errorf("sync stall = %d, want 0", res.SyncStallCycles)
	}
}
