package experiments

import (
	"fmt"

	"aegis/internal/aegisrw"
	"aegis/internal/core"
	"aegis/internal/rdis"
	"aegis/internal/report"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/stats"
)

// AblationIDs lists the extra experiments beyond the paper's artifacts;
// each probes a design decision DESIGN.md calls out.
var AblationIDs = []string{"traffic", "latency", "softftc", "memblock", "oscapacity", "payg", "device", "freep", "ablation-wear", "ablation-stuck", "ablation-rdis", "ablation-aegisp", "ablation-wearlevel"}

// AblationWear contrasts the paper's request-scoped wear model (one
// potential pulse per cell per write request) with fully physical
// per-pulse wear, where a scheme's extra inversion rewrites consume
// endurance immediately.  Cache-less partition schemes suffer a wear
// feedback loop under per-pulse wear — the effect the paper alludes to
// when crediting Aegis-rw with "removing extra inversion writes".
func AblationWear(p Params) (*report.Table, error) {
	factories := mustParse(512, "ecp:6", "safer:64", "aegis:23", "aegis:61", "aegis-rw:61")
	t := &report.Table{
		Title:  "Ablation: request-scoped wear (paper model) vs per-pulse wear (physical)",
		Header: []string{"scheme", "overhead bits", "lifetime request-wear", "lifetime pulse-wear", "pulse/request"},
		Notes: []string{
			"per-pulse wear charges every inversion rewrite immediately: cache-less partition schemes age their own faulty blocks faster",
			"single-write schemes (ECP, rw with a perfect cache) are nearly wear-model-invariant",
		},
	}
	cfg := p.simConfig(512, p.PageTrials)
	for _, f := range factories {
		cfg.Seed = p.schemeSeed("abl-wear-" + f.Name())
		cfg.PulseWear = false
		reqRs, err := p.Engine.Pages(f, cfg)
		if err != nil {
			return nil, err
		}
		req := stats.SummarizeInts(sim.Lifetimes(reqRs)).Mean
		cfg.PulseWear = true
		pulseRs, err := p.Engine.Pages(f, cfg)
		if err != nil {
			return nil, err
		}
		pulse := stats.SummarizeInts(sim.Lifetimes(pulseRs)).Mean
		ratio := 0.0
		if req > 0 {
			ratio = pulse / req
		}
		t.AddRow(f.Name(), report.Itoa(f.OverheadBits()),
			report.Ftoa(req), report.Ftoa(pulse), report.Ftoa(ratio))
	}
	return t, nil
}

// AblationStuck sweeps the stuck-value bias of injected faults.  The
// expected (and measured) result is a null one that validates the
// paper's uniform-stuck-value assumption: under random data the
// stuck-at-Wrong/Right classification of a fault is decided by the
// datum, not the stuck value, so even a block whose cells all stick at
// the same value shows the same failure curve — for base Aegis and for
// Aegis-rw alike.  (Same-type fault immunity in Aegis-rw is a per-write
// property of the data pattern, as examples/failcache demonstrates with
// an adversarial geometry, not a property of biased stuck values.)
func AblationStuck(p Params) (*report.Table, error) {
	type entry struct {
		f    scheme.Factory
		bias float64
	}
	entries := []entry{
		{core.MustFactory(512, 31), 0.5},
		{core.MustFactory(512, 31), 1.0},
		{aegisrw.MustRWFactory(512, 31, cache), 0.5},
		{aegisrw.MustRWFactory(512, 31, cache), 1.0},
	}
	const maxFaults = 30
	t := &report.Table{
		Title:  "Ablation: block failure probability vs stuck-value bias (512-bit, B=31)",
		Header: []string{"faults", "Aegis bias=0.5", "Aegis bias=1.0", "Aegis-rw bias=0.5", "Aegis-rw bias=1.0"},
		Notes: []string{
			"bias = probability an injected cell sticks at 1; 1.0 = every cell sticks at the same value",
			"expected null result: with random data the W/R split is decided by the datum, so the curves match across biases — validating the paper's uniform stuck-value model",
		},
	}
	cfg := p.simConfig(512, p.CurveTrials)
	curves := make([][]float64, len(entries))
	for i, e := range entries {
		cfg.Seed = p.schemeSeed(fmt.Sprintf("abl-stuck-%s-%v", e.f.Name(), e.bias))
		curve, err := p.Engine.FailureCurveBias(e.f, cfg, maxFaults, 8, e.bias)
		if err != nil {
			return nil, err
		}
		curves[i] = curve
	}
	for nf := 1; nf <= maxFaults; nf++ {
		row := []string{report.Itoa(nf)}
		for i := range entries {
			row = append(row, fmt.Sprintf("%.3f", curves[i][nf]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationRDIS sweeps the RDIS recursion depth, quantifying how much of
// the comparator's strength (EXPERIMENTS.md's noted deviation) comes
// from each recursion level.
func AblationRDIS(p Params) (*report.Table, error) {
	const maxFaults = 30
	t := &report.Table{
		Title:  "Ablation: RDIS recursion depth vs block failure probability (512-bit)",
		Header: []string{"faults", "RDIS-1", "RDIS-2", "RDIS-3", "RDIS-4"},
		Notes:  []string{"all depths use the perfect fail cache, as the paper grants RDIS"},
	}
	cfg := p.simConfig(512, p.CurveTrials)
	depths := []int{1, 2, 3, 4}
	curves := make([][]float64, len(depths))
	for i, d := range depths {
		f := rdis.MustFactory(512, d, cache)
		cfg.Seed = p.schemeSeed(fmt.Sprintf("abl-rdis-%d", d))
		curve, err := p.Engine.FailureCurve(f, cfg, maxFaults, 8)
		if err != nil {
			return nil, err
		}
		curves[i] = curve
	}
	for nf := 1; nf <= maxFaults; nf++ {
		row := []string{report.Itoa(nf)}
		for i := range depths {
			row = append(row, fmt.Sprintf("%.3f", curves[i][nf]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationAegisP quantifies the trade §2.3 sketches in one sentence
// ("the cost can be reduced by directly recording IDs of bit-inverted
// groups"): replacing the B-bit inversion vector with q group pointers
// shrinks the overhead toward Aegis-rw-p territory but, without a fail
// cache, caps the block at q simultaneously-wrong faults.  Block failure
// probability vs fault count for Aegis 23×23 against its pointer
// variants.
func AblationAegisP(p Params) (*report.Table, error) {
	const maxFaults = 24
	factories := mustParse(512, "aegis:23", "aegis-p:23:8", "aegis-p:23:4", "aegis-p:23:2") // 28, 46, 26, 16 bits
	t := &report.Table{
		Title:  "Ablation: Aegis-p (recorded inverted-group IDs, §2.3) vs the B-bit inversion vector",
		Header: []string{"faults"},
		Notes: []string{
			"without a fail cache every simultaneously-wrong fault needs its own recorded group; under sustained random writes a request with more than q wrong faults arrives quickly, capping capacity just above q",
			"compare overheads: Aegis 23x23 = 28 bits; Aegis-p q=2/4/8 = 16/26/46 bits",
		},
	}
	cfg := p.simConfig(512, p.CurveTrials)
	curves := make([][]float64, len(factories))
	for i, f := range factories {
		cfg.Seed = p.schemeSeed("abl-aegisp-" + f.Name())
		curve, err := p.Engine.FailureCurve(f, cfg, maxFaults, 8)
		if err != nil {
			return nil, err
		}
		curves[i] = curve
		t.Header = append(t.Header, fmt.Sprintf("%s (%db)", f.Name(), f.OverheadBits()))
	}
	for nf := 1; nf <= maxFaults; nf++ {
		row := []string{report.Itoa(nf)}
		for i := range factories {
			row = append(row, fmt.Sprintf("%.3f", curves[i][nf]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
