package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/workload"
)

// RenderTableII prints the table in the paper's layout: programs by rows
// (grouped by size), machines by column pairs (half cores, all cores).
func RenderTableII(w io.Writer, d TableIIData, specs []machine.Spec) {
	fmt.Fprintln(w, "Table II: Normalized increase in number of cycles, (C(n)-C(1))/C(1)")
	header := fmt.Sprintf("%-8s %-4s", "Program", "Size")
	for _, spec := range specs {
		header += fmt.Sprintf(" | %-9s n=%-3d n=%-3d", trimName(spec.Name), spec.TotalCores()/2, spec.TotalCores())
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, size := range []workload.Class{workload.W, workload.C} {
		for _, prog := range tableIIPrograms {
			line := fmt.Sprintf("%-8s %-4s", prog, size)
			for _, spec := range specs {
				half, all := spec.TotalCores()/2, spec.TotalCores()
				ch, _ := d.Cell(spec.Name, prog, size, half)
				ca, _ := d.Cell(spec.Name, prog, size, all)
				line += fmt.Sprintf(" | %-9s %6.2f %6.2f", "", ch.Omega, ca.Omega)
			}
			fmt.Fprintln(w, line)
		}
	}
}

func trimName(name string) string {
	if len(name) > 9 {
		return name[:9]
	}
	return name
}

// RenderFig3 prints the four series of Fig. 3 as a table over core counts.
func RenderFig3(w io.Writer, d Fig3Data) {
	fmt.Fprintf(w, "Fig. 3 (%s): CG.C — varying the number of cores\n", d.Machine)
	fmt.Fprintf(w, "%6s %16s %16s %16s %14s\n", "cores", "total cycles", "stall cycles", "work cycles", "LLC misses")
	for i, n := range d.Cores {
		fmt.Fprintf(w, "%6d %16.0f %16.0f %16.0f %14.0f\n",
			n, d.Total[i], d.Stall[i], d.Work[i], d.Misses[i])
	}
}

// RenderTableIII prints the problem-size inventory.
func RenderTableIII(w io.Writer, rows []ProblemSize) {
	fmt.Fprintln(w, "Table III: Problem size description for CG and x264 (simulated scale)")
	fmt.Fprintf(w, "%-10s %-10s %14s\n", "Program", "Class", "Footprint")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %14s\n", r.Program, r.Class, fmtBytes(r.Footprint))
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// RenderFig4 prints the burstiness profiles: per series, the CCDF summary,
// tail fit and classification.
func RenderFig4(w io.Writer, series []Fig4Series) {
	fmt.Fprintln(w, "Fig. 4: Burstiness of off-chip memory traffic (5us windows, all cores)")
	fmt.Fprintf(w, "%-8s %-10s %9s %10s %10s %8s %8s %8s  %s\n",
		"Program", "Class", "bursts", "lines", "maxBurst", "busy%", "tailA", "tailR2", "verdict")
	for _, s := range series {
		a := s.Analysis
		fmt.Fprintf(w, "%-8s %-10s %9d %10d %10d %8.1f %8.2f %8.2f  %s\n",
			s.Program, s.Class, a.Bursts, a.TotalLines, a.MaxLines,
			100*a.NonEmptyFraction, a.Tail.Alpha, a.Tail.R2, s.Verdict)
	}
}

// RenderModelFig prints the measured-vs-modeled ω(n) comparison (Fig. 5 and
// Fig. 6).
func RenderModelFig(w io.Writer, f ModelFig, figName string) {
	fmt.Fprintf(w, "%s (%s): %s.%s — measured vs modeled degree of contention\n",
		figName, f.Machine, f.Program, f.Class)
	fmt.Fprintf(w, "model inputs: C(n) at n=%v; mean rel err %.1f%% (max %.1f%%)\n",
		f.Fit.Anchors, 100*f.Validation.MeanRelErr, 100*f.Validation.MaxRelErr)
	fmt.Fprintf(w, "%6s %12s %12s\n", "cores", "measured ω", "model ω")
	for i, n := range f.Validation.Cores {
		fmt.Fprintf(w, "%6d %12.3f %12.3f\n", n, f.Validation.Measured[i], f.Validation.Modeled[i])
	}
}

// RenderTableIV prints the goodness-of-fit table.
func RenderTableIV(w io.Writer, cells []TableIVCell, specs []machine.Spec) {
	fmt.Fprintln(w, "Table IV: Colinearity goodness-of-fit R² for 1/C(n)")
	header := fmt.Sprintf("%-12s", "System")
	for _, subj := range tableIVSubjects {
		header += fmt.Sprintf(" %10s", fmt.Sprintf("%s.%s", subj.Program, subj.Class))
	}
	fmt.Fprintln(w, header)
	for _, spec := range specs {
		line := fmt.Sprintf("%-12s", spec.Name)
		for _, subj := range tableIVSubjects {
			val := "-"
			for _, c := range cells {
				if c.Machine == spec.Name && c.Program == subj.Program && c.Class == subj.Class {
					val = fmt.Sprintf("%.2f", c.R2)
					break
				}
			}
			line += fmt.Sprintf(" %10s", val)
		}
		fmt.Fprintln(w, line)
	}
}

// RenderAblationInputs prints the homogeneous-vs-heterogeneous comparison.
func RenderAblationInputs(w io.Writer, a AblationInputsResult) {
	fmt.Fprintf(w, "Ablation (inputs, %s): heterogeneous ρ fit MRE %.1f%% vs homogeneous %.1f%%\n",
		a.Machine, 100*a.HeterogeneousMRE, 100*a.HomogeneousMRE)
	fmt.Fprintf(w, "  heterogeneous ρ per socket: %v\n", a.HeterogeneousRhos)
	fmt.Fprintf(w, "  homogeneous ρ:              %v\n", a.HomogeneousRhos)
}

// RenderAblationController prints the service-discipline comparison.
func RenderAblationController(w io.Writer, a AblationControllerResult) {
	fmt.Fprintf(w, "Ablation (MC discipline, %s, n=%d): ω FCFS %.2f vs FR-FCFS %.2f\n",
		a.Machine, a.CoresUsed, a.OmegaFCFS, a.OmegaFR)
	fmt.Fprintf(w, "  avg MC wait: FCFS %.1f cyc (row hit %.0f%%) vs FR-FCFS %.1f cyc (row hit %.0f%%)\n",
		a.AvgWaitFC, 100*a.RowHitFC, a.AvgWaitFR, 100*a.RowHitFR)
}

// RenderAblationLinear prints the open-model vs linear-baseline comparison.
func RenderAblationLinear(w io.Writer, a AblationLinearResult) {
	fmt.Fprintf(w, "Ablation (queueing model, %s): open M/M/1 MRE %.1f%% vs closed/linear %.1f%%\n",
		a.Machine, 100*a.OpenMRE, 100*a.LinearMRE)
}
