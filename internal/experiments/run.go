package experiments

import (
	"fmt"

	"aegis/internal/report"
	"aegis/internal/stats"
)

// Result bundles what one experiment produced.
type Result struct {
	Tables []*report.Table
	// Series carries the raw curves of figure experiments for CSV
	// export or plotting.
	Series []stats.Series
}

// IDs lists the runnable experiments in paper order.
var IDs = []string{
	"table1", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13",
}

// Run executes one experiment (or "all") under the given parameters.
func Run(id string, p Params) (Result, error) {
	if id != "all" && id != "extensions" {
		// The aggregate runners re-enter Run per experiment, which then
		// labels itself; labeling here too would flash "all" between
		// experiments.
		p.Progress.SetExperiment(id)
	}
	switch id {
	case "table1":
		return Result{Tables: []*report.Table{Table1()}}, nil
	case "fig1":
		return Result{Tables: []*report.Table{Fig1()}}, nil
	case "fig2":
		return Result{Tables: Fig2()}, nil
	case "fig5":
		s256, s512, err := bothStudies(p)
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig5Table(s256, s512)}}, nil
	case "fig6":
		s256, s512, err := bothStudies(p)
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig6Table(s256, s512)}}, nil
	case "fig7":
		s256, s512, err := bothStudies(p)
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig7Table(s256, s512)}}, nil
	case "fig8":
		return figResult(Fig8(p))
	case "fig9":
		return figResult(Fig9(p))
	case "fig10":
		return figResult(Fig10(p))
	case "fig11":
		s, err := runStudy(p, 512, rosterVariants())
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig11Table(s)}}, nil
	case "fig12":
		s, err := runStudy(p, 512, rosterVariants())
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig12Table(s)}}, nil
	case "fig13":
		s, err := runStudy(p, 512, rosterVariants())
		if err != nil {
			return Result{}, err
		}
		return Result{Tables: []*report.Table{fig13Table(s)}}, nil
	case "traffic":
		return tableResult(Traffic(p))
	case "ablation-wear":
		return tableResult(AblationWear(p))
	case "ablation-stuck":
		return tableResult(AblationStuck(p))
	case "ablation-rdis":
		return tableResult(AblationRDIS(p))
	case "ablation-aegisp":
		return tableResult(AblationAegisP(p))
	case "ablation-wearlevel":
		return Result{Tables: []*report.Table{AblationWearLevel(p)}}, nil
	case "oscapacity":
		return tableResult(OSCapacity(p))
	case "payg":
		return tableResult(PAYG(p))
	case "device":
		return Result{Tables: []*report.Table{Device(p)}}, nil
	case "latency":
		return tableResult(Latency(p))
	case "softftc":
		return Result{Tables: []*report.Table{SoftFTC(p)}}, nil
	case "memblock":
		return tableResult(MemBlock(p))
	case "freep":
		return tableResult(FreeP(p))
	case "all":
		return RunAll(p)
	case "extensions":
		return RunExtensions(p)
	default:
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v, %v, \"all\" and \"extensions\")", id, IDs, AblationIDs)
	}
}

// tableResult wraps a single-table runner's (table, error) pair.
func tableResult(t *report.Table, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: []*report.Table{t}}, nil
}

// figResult wraps a figure runner's (table, series, error) triple.
func figResult(t *report.Table, s []stats.Series, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: []*report.Table{t}, Series: s}, nil
}

// bothStudies runs the 256- and 512-bit page studies Figures 5–7 share.
func bothStudies(p Params) (Study, Study, error) {
	s256, err := runStudy(p, 256, roster256())
	if err != nil {
		return Study{}, Study{}, err
	}
	s512, err := runStudy(p, 512, roster512())
	if err != nil {
		return Study{}, Study{}, err
	}
	return s256, s512, nil
}

// RunExtensions executes every extension experiment (ablations and
// substrate studies) in AblationIDs order.
func RunExtensions(p Params) (Result, error) {
	var out Result
	for _, id := range AblationIDs {
		r, err := Run(id, p)
		if err != nil {
			return Result{}, err
		}
		out.Tables = append(out.Tables, r.Tables...)
		out.Series = append(out.Series, r.Series...)
	}
	return out, nil
}

// RunAll executes every experiment, sharing the page studies that
// Figures 5/6/7 and 11/12/13 derive from so each simulation runs once.
func RunAll(p Params) (Result, error) {
	var out Result
	out.Tables = append(out.Tables, Table1())
	out.Tables = append(out.Tables, Fig1())
	out.Tables = append(out.Tables, Fig2()...)

	p.Progress.SetExperiment("fig5-7")
	s256, s512, err := bothStudies(p)
	if err != nil {
		return Result{}, err
	}
	out.Tables = append(out.Tables, fig5Table(s256, s512), fig6Table(s256, s512), fig7Table(s256, s512))

	p.Progress.SetExperiment("fig8")
	t8, s8, err := Fig8(p)
	if err != nil {
		return Result{}, err
	}
	out.Tables = append(out.Tables, t8)
	out.Series = append(out.Series, s8...)

	p.Progress.SetExperiment("fig9")
	t9, s9, err := Fig9(p)
	if err != nil {
		return Result{}, err
	}
	out.Tables = append(out.Tables, t9)
	out.Series = append(out.Series, s9...)

	p.Progress.SetExperiment("fig10")
	t10, s10, err := Fig10(p)
	if err != nil {
		return Result{}, err
	}
	out.Tables = append(out.Tables, t10)
	out.Series = append(out.Series, s10...)

	p.Progress.SetExperiment("fig11-13")
	sv, err := runStudy(p, 512, rosterVariants())
	if err != nil {
		return Result{}, err
	}
	out.Tables = append(out.Tables, fig11Table(sv), fig12Table(sv), fig13Table(sv))
	return out, nil
}
