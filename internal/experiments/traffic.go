package experiments

import (
	"fmt"

	"aegis/internal/report"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// PCM timing constants for the latency model, in nanoseconds.  Array
// reads are fast; writes (RESET/SET pulses) dominate.  The values are
// the commonly used PCM parameters (e.g. Lee et al., ISCA 2009); only
// their ratio matters for the comparison.
const (
	tReadNS  = 60.0
	tWriteNS = 250.0
)

// trafficCurves runs the write-traffic probe (8 writes per step, 512-bit
// blocks) for each factory through the engine, seeding each scheme's
// run from study and its name.
func trafficCurves(p Params, study string, maxFaults int, factories []scheme.Factory) ([][]sim.TrafficPoint, error) {
	cfg := p.simConfig(512, max(p.CurveTrials/2, 1))
	curves := make([][]sim.TrafficPoint, len(factories))
	for i, f := range factories {
		cfg.Seed = p.schemeSeed(study + "-" + f.Name())
		var err error
		if curves[i], err = p.Engine.TrafficCurve(f, cfg, maxFaults, 8); err != nil {
			return nil, err
		}
	}
	return curves, nil
}

// Traffic quantifies the write-path costs §3.2 discusses qualitatively:
// the extra inversion writes per request a cache-less scheme issues as a
// block accumulates faults ("Aegis 9×61 has to generate intensive
// inversion writes … when there are more than 20 faults"), and how the
// fail cache eliminates them.
func Traffic(p Params) (*report.Table, error) {
	const maxFaults = 24
	factories := mustParse(512, "safer:64", "aegis:23", "aegis:61", "aegis-rw:61")
	curves, err := trafficCurves(p, "traffic", maxFaults, factories)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Write traffic: extra physical writes per request vs faults in a 512-bit block",
		Header: []string{"faults"},
		Notes: []string{
			"extra writes = inversion rewrites issued while the verify-read loop converges",
			"with a perfect fail cache Aegis-rw plans each write in one pass: ≈0 extra writes",
		},
	}
	for _, f := range factories {
		t.Header = append(t.Header, f.Name()+" extra", f.Name()+" repart")
	}
	for nf := 1; nf <= maxFaults; nf++ {
		row := []string{report.Itoa(nf)}
		for i := range factories {
			pt := curves[i][nf-1]
			if pt.VerifyReads == 0 {
				row = append(row, "-", "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", pt.ExtraWrites), fmt.Sprintf("%.3f", pt.Repartitions))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Latency converts the operation counts of the traffic study into an
// average write-request latency: every physical block write costs a
// write pulse window, every verification read an array read.  This is
// the service-time dimension the paper touches when it warns that
// cache-less Aegis "has to generate intensive inversion writes" and that
// the fail cache removes the extra writes.
func Latency(p Params) (*report.Table, error) {
	const maxFaults = 20
	factories := mustParse(512, "ecp:6", "safer:64", "aegis:61", "aegis-rw:61")
	curves, err := trafficCurves(p, "latency", maxFaults, factories)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Write latency model: mean request service time (ns) vs faults in a 512-bit block",
		Header: []string{"faults"},
		Notes: []string{
			fmt.Sprintf("latency = writes×%.0fns + verification reads×%.0fns per request (relative values are what matter)", tWriteNS, tReadNS),
			"the fail cache turns Aegis's multi-pass verify-and-rewrite into a single-pass write: flat latency",
		},
	}
	for _, f := range factories {
		t.Header = append(t.Header, f.Name())
	}
	for nf := 1; nf <= maxFaults; nf++ {
		row := []string{report.Itoa(nf)}
		for i := range factories {
			pt := curves[i][nf-1]
			if pt.VerifyReads == 0 {
				// No block of this scheme survived to this fault count.
				row = append(row, "-")
				continue
			}
			// One data write plus the extras, plus the verify reads.
			latency := (1+pt.ExtraWrites)*tWriteNS + pt.VerifyReads*tReadNS
			row = append(row, fmt.Sprintf("%.0f", latency))
		}
		t.AddRow(row...)
	}
	return t, nil
}
