package repro

// Golden fixtures for the model artifacts: Fig. 5 (CG.C) on every preset,
// Fig. 6 (EP.C) on IntelUMA8 and Ablation A's ρ/MRE on AMDNUMA48. Each
// figure pins its rendered text, its gnuplot .dat file and the modeled ω
// at full precision, so any change to the anchors or the fit's float bits
// shows here. Re-baseline with `go test -run TestGoldenModel -update .`.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// modelTune is the model fixtures' scale. With the coarse count set of
// modelStep, Fig. 5 costs about one to three seconds per machine.
var modelTune = workload.Tuning{RefScale: 0.02}

// modelStep is the fixtures' CoarseSweepCounts step.
const modelStep = 6

func TestGoldenModelFigs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	for _, c := range []struct {
		fig  string
		spec machine.Spec
	}{
		{"fig5", machine.IntelUMA8()},
		{"fig5", machine.IntelNUMA24()},
		{"fig5", machine.AMDNUMA48()},
		{"fig6", machine.IntelUMA8()},
	} {
		t.Run(c.fig+"_"+c.spec.Name, func(t *testing.T) {
			r := experiments.NewRunner(modelTune)
			counts := experiments.CoarseSweepCounts(c.spec, modelStep)
			run, title := r.Fig5, "Fig. 5"
			if c.fig == "fig6" {
				run, title = r.Fig6, "Fig. 6"
			}
			fig, err := run(context.Background(), c.spec, counts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			experiments.RenderModelFig(&buf, fig, title)
			fmt.Fprintf(&buf, "modeled ω at full precision: %v\n", fig.Validation.Modeled)
			name := c.fig + "_" + c.spec.Name
			checkGolden(t, name+".txt", buf.Bytes())

			dir := t.TempDir()
			if err := experiments.WriteModelFigDat(dir, c.fig, fig); err != nil {
				t.Fatal(err)
			}
			dat, err := os.ReadFile(filepath.Join(dir, name+".dat"))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".dat", dat)
		})
	}
}

// TestGoldenAblationInputs pins Ablation A on AMDNUMA48, the one machine
// whose remote sockets sit at different distances, so the homogeneous fit
// (core.Options.Homogeneous) differs from the per-socket one. ρ prints at
// full precision.
func TestGoldenAblationInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden artifacts skipped in -short mode")
	}
	spec := machine.AMDNUMA48()
	r := experiments.NewRunner(modelTune)
	res, err := r.AblationInputs(context.Background(), spec, experiments.CoarseSweepCounts(spec, modelStep))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiments.RenderAblationInputs(&buf, res)
	checkGolden(t, "ablation_inputs_AMDNUMA48.txt", buf.Bytes())
}
