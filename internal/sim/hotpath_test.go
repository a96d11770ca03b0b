package sim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/trace"
)

// randomStreams builds seeded reference streams with a mix of dependent and
// independent loads, stores, hits and misses, plus occasional barriers —
// every scheduling path the engine has.
func randomStreams(seed int64, threads, refsEach int) []trace.Stream {
	rng := rand.New(rand.NewSource(seed))
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		refs := make([]trace.Ref, 0, refsEach)
		base := uint64(t) << 30
		for i := 0; i < refsEach; i++ {
			switch rng.Intn(20) {
			case 0:
				refs = append(refs, trace.Ref{Sync: true, Work: uint32(rng.Intn(50))})
			default:
				ref := trace.Ref{
					Addr: base + uint64(rng.Intn(1<<16))*64,
					Work: uint32(rng.Intn(8)),
					Dep:  rng.Intn(3) == 0,
				}
				if rng.Intn(4) == 0 {
					ref.Kind = trace.Store
				}
				if rng.Intn(3) == 0 {
					// Far address: likely an off-chip miss.
					ref.Addr = base + uint64(rng.Intn(1<<24))*4096
				}
				refs = append(refs, ref)
			}
		}
		streams[t] = trace.FromSlice(refs)
	}
	return streams
}

// TestDispatchLoopAllocationBound pins the zero-alloc contract end to end:
// the marginal cost of simulating more references must be allocation-free.
// Fixed per-run setup (engine, machine, pools, page tables) is measured by
// a small run and subtracted; the extra references of a 16x larger run may
// not add more than a page-table's worth of allocations. The cases cover
// every controller role: FCFS controllers, FR-FCFS controllers behind
// link servers, and UMA buses in front of the shared controller.
func TestDispatchLoopAllocationBound(t *testing.T) {
	frfcfs := testSpec()
	frfcfs.MC.Discipline = memctrl.FRFCFS
	frfcfs.LinkOccupancy = 12
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fcfs", Config{Spec: testSpec()}},
		// Interleaved pages make half the requests remote, so they cross
		// the link servers both ways.
		{"frfcfs-links", Config{Spec: frfcfs, Placement: Interleave}},
		{"uma-bus", Config{Spec: umaSpec()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Threads, cfg.Cores = 4, 4
			run := func(refs int) Result {
				res, err := Run(context.Background(), cfg, randomStreams(7, 4, refs))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			measure := func(refs int) float64 {
				return testing.AllocsPerRun(3, func() { run(refs) })
			}
			small := measure(2000)
			large := measure(32000)
			extraRefs := 4 * (32000 - 2000)
			perRef := (large - small) / float64(extraRefs)
			// The only allowed growth is the page-home table: the dense
			// per-region tables grow by append as higher pages are touched,
			// and the fallback map gains one entry per page past their span
			// (most of this test's far addresses), amortized across refs —
			// well under 0.1 allocs/ref. The pre-overhaul engine allocated
			// >3 per off-chip reference.
			if perRef > 0.1 {
				t.Errorf("dispatch loop allocates %.3f objects per reference (small run %.0f, large run %.0f), want ~0",
					perRef, small, large)
			}
			if cfg.Spec.LinkOccupancy > 0 && run(2000).RemoteRequests == 0 {
				t.Error("no remote requests: the link servers were never exercised")
			}
		})
	}
}

// TestEventsCounter checks Result.Events reports the dispatched event count.
func TestEventsCounter(t *testing.T) {
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 2, Cores: 2}, memBoundStreams(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Error("Events = 0, want the dispatched event count")
	}
	// Every off-chip request takes at least one event (issue), and the run
	// had 200 of them plus per-core steps.
	if res.Events < res.OffChipRequests {
		t.Errorf("Events = %d < OffChipRequests = %d", res.Events, res.OffChipRequests)
	}
}

// TestRunGenMatchesFromSlice runs the same references twice: from FromSlice
// streams, which hand the engine each thread's refs as one run, and from
// Gen streams, which hand them over one buffer at a time. The Results must
// be equal. Six threads on three cores also rotate runs across the
// oversubscribed run queues.
func TestRunGenMatchesFromSlice(t *testing.T) {
	const threads = 6
	refs := make([][]trace.Ref, threads)
	for i, s := range randomStreams(11, threads, 5000) {
		refs[i] = trace.Collect(s, 0)
	}
	fromSlice := make([]trace.Stream, threads)
	gen := make([]trace.Stream, threads)
	for i, rs := range refs {
		fromSlice[i] = trace.FromSlice(rs)
		gen[i] = trace.Gen(func(emit func(trace.Ref) bool) {
			for _, r := range rs {
				if !emit(r) {
					return
				}
			}
		})
	}
	cfg := Config{Spec: testSpec(), Threads: threads, Cores: 3, Coherence: true}
	want, err := Run(context.Background(), cfg, fromSlice)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	if want.OffChipRequests == 0 || want.Aborted {
		t.Fatalf("reference run did not exercise the engine: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Gen streams: %+v\nFromSlice streams: %+v", got, want)
	}
}
