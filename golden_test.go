package repro

// Golden-file regression tests: the rendered Fig. 3 and Table II artifacts
// at -scale 0.1 are committed under testdata/golden and must reproduce
// byte-for-byte. The simulator is fully deterministic (seeded workloads,
// discrete-event execution, total event order), so any diff here is a
// behavior change — intended ones are re-baselined with `go test -run
// TestGolden -update .` and reviewed like any other diff.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// checkGolden compares got against the named fixture (or rewrites it under
// -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run `go test -run TestGolden -update .`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from fixture.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenTune is the fixture scale. 0.1 keeps the two sweeps affordable
// while leaving every counter large enough that real regressions move it.
var goldenTune = workload.Tuning{RefScale: 0.1}

func TestGoldenFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	r := experiments.NewRunner(goldenTune)
	d, err := r.Fig3(context.Background(), machine.IntelUMA8(), []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderFig3(&buf, d)
	checkGolden(t, "fig3_IntelUMA8.txt", buf.Bytes())

	// The gnuplot dat writer is a second, independent serialization of the
	// same data; pin it too.
	dir := t.TempDir()
	if err := experiments.WriteFig3Dat(dir, d); err != nil {
		t.Fatal(err)
	}
	dat, err := os.ReadFile(filepath.Join(dir, "fig3_IntelUMA8.dat"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3_IntelUMA8.dat", dat)
}

func TestGoldenTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	r := experiments.NewRunner(goldenTune)
	specs := []machine.Spec{machine.IntelUMA8()}
	d, err := r.TableII(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderTableII(&buf, d, specs)
	checkGolden(t, "tableII_IntelUMA8.txt", buf.Bytes())
}

// studyTune is the scale of the Section V study fixtures (sensitivity,
// controller ablation, oversubscription): every CG.C run is cut to one
// iteration, so the three fixtures run in seconds.
var studyTune = workload.Tuning{RefScale: 0.01}

// fig4Tune is the Fig. 4 fixture scale. The sampled runs are cheap even at
// a quarter of the full iteration counts, and this much of each run keeps
// bursty and non-bursty verdicts and non-trivial tail fits in the fixture.
var fig4Tune = workload.Tuning{RefScale: 0.25}

func TestGoldenFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	r := experiments.NewRunner(fig4Tune)
	series, err := r.Fig4(context.Background(), machine.IntelNUMA24())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderFig4(&buf, series)
	checkGolden(t, "fig4_IntelNUMA24.txt", buf.Bytes())
}

func TestGoldenOversubscription(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	spec := machine.IntelUMA8()
	r := experiments.NewRunner(studyTune)
	points, err := r.Oversubscription(context.Background(), spec, "CG", workload.C)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderOversubscription(&buf, spec, "CG", workload.C, points)
	checkGolden(t, "oversubscription_IntelUMA8.txt", buf.Bytes())
}

func TestGoldenSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	spec := machine.IntelUMA8()
	r := experiments.NewRunner(studyTune)
	points, err := r.Sensitivity(context.Background(), spec, "CG", workload.C)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderSensitivity(&buf, spec, "CG", workload.C, points)
	checkGolden(t, "sensitivity_IntelUMA8.txt", buf.Bytes())
}

func TestGoldenAblationController(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	r := experiments.NewRunner(studyTune)
	res, err := r.AblationController(context.Background(), machine.IntelUMA8())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderAblationController(&buf, res)
	checkGolden(t, "ablation_controller_IntelUMA8.txt", buf.Bytes())
}

// amdTune is the AMDNUMA48 counter fixture's scale: SP.C's 48 threads
// finish each point in a fraction of a second, and the controllers still
// saturate from one socket on.
var amdTune = workload.Tuning{RefScale: 0.02}

// TestGoldenSimCountersAMDNUMA48 pins the raw simulator counters of SP.C on
// AMDNUMA48: FR-FCFS controllers, two per socket, reached over the
// two-hop circulant fabric. The first-touch points cover one core, each
// socket filled and the first core of the next; the interleaved ones
// spread pages over every active controller. Page placement decides
// every request's home controller and hop count, so a change to it moves
// Remote and the per-controller columns here.
func TestGoldenSimCountersAMDNUMA48(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	spec := machine.AMDNUMA48()
	wl, err := workload.NewTuned("SP", workload.C, amdTune)
	if err != nil {
		t.Fatal(err)
	}
	points := []struct {
		placement sim.Placement
		cores     int
	}{
		{sim.FirstTouch, 1}, {sim.FirstTouch, 12}, {sim.FirstTouch, 13},
		{sim.FirstTouch, 25}, {sim.FirstTouch, 37}, {sim.FirstTouch, 48},
		{sim.Interleave, 25}, {sim.Interleave, 48},
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s %s.%s at scale %g, %d threads\n",
		spec.Name, wl.Name(), wl.Class(), amdTune.RefScale, spec.TotalCores())
	for _, p := range points {
		cfg := sim.Config{Spec: spec, Cores: p.cores, Placement: p.placement}
		res, err := sim.Run(context.Background(), cfg, wl.Streams(spec.TotalCores()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s n=%d total_cycles=%d makespan=%d events=%d offchip=%d remote=%d\n",
			p.placement, p.cores, res.TotalCycles, res.Makespan, res.Events,
			res.OffChipRequests, res.RemoteRequests)
		for i, mc := range res.MCStats {
			fmt.Fprintf(&buf, "  mc%d requests=%d row_hits=%d total_wait=%d\n",
				i, mc.Requests, mc.RowHits, mc.TotalWait)
		}
	}
	checkGolden(t, "sim_counters_AMDNUMA48.txt", buf.Bytes())
}
