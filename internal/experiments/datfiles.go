package experiments

import (
	"fmt"
	"os"
	"path/filepath"
)

// Dat-file writers: gnuplot-ready whitespace-separated series for each
// figure, so the paper's plots can be regenerated graphically:
//
//	plot "fig5_IntelNUMA24.dat" u 1:2 w lp t "measured", "" u 1:3 w lp t "model"

// WriteFig3Dat writes the four Fig. 3 series (cores, total, stall, work,
// misses).
func WriteFig3Dat(dir string, d Fig3Data) error {
	path := filepath.Join(dir, "fig3_"+d.Machine+".dat")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# cores totalCycles stallCycles workCycles llcMisses")
	for i, n := range d.Cores {
		fmt.Fprintf(f, "%d %.0f %.0f %.0f %.0f\n", n, d.Total[i], d.Stall[i], d.Work[i], d.Misses[i])
	}
	return nil
}

// WriteModelFigDat writes a Fig. 5/6 comparison (cores, measured ω, model ω).
func WriteModelFigDat(dir, figName string, fig ModelFig) error {
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.dat", figName, fig.Machine))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s.%s on %s; inputs %v; MRE %.3f\n",
		fig.Program, fig.Class, fig.Machine, fig.Fit.Anchors, fig.Validation.MeanRelErr)
	fmt.Fprintln(f, "# cores measuredOmega modelOmega")
	for i, n := range fig.Validation.Cores {
		fmt.Fprintf(f, "%d %.4f %.4f\n", n, fig.Validation.Measured[i], fig.Validation.Modeled[i])
	}
	return nil
}

// WriteFig4Dat writes one CCDF per series (x = burst lines, y = P(>x)),
// matching the paper's log-log plot.
func WriteFig4Dat(dir string, series []Fig4Series) error {
	for _, s := range series {
		path := filepath.Join(dir, fmt.Sprintf("fig4_%s_%s.dat", s.Program, s.Class))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "# %s.%s: %s (busy %.1f%%)\n",
			s.Program, s.Class, s.Verdict, 100*s.Analysis.NonEmptyFraction)
		fmt.Fprintln(f, "# burstLines P(>x)")
		for _, pt := range s.Analysis.CCDF {
			if pt.P > 0 {
				fmt.Fprintf(f, "%.0f %.8g\n", pt.X, pt.P)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
