package experiments

import (
	"fmt"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/payg"
	"aegis/internal/plane"
	"aegis/internal/report"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/stats"
)

// PAYG evaluates the Pay-As-You-Go organization the paper's §4 positions
// Aegis inside: every block gets a 1-entry LEC (ECP1) and a page-level
// GEC pool of on-demand recovery-scheme slots (Aegis 9×61 or ECP6),
// sized so the page's total overhead matches a uniform per-block
// scheme's.  The measured finding is a negative one worth stating
// plainly: under this paper's fault model, pooling does NOT beat
// uniform provisioning at equal space, and the choice of GEC component
// barely moves the result.  Perfect wear leveling ages all blocks of a
// page together, so escalation demand arrives in an end-of-life burst;
// the binding constraint is the number of slots, not their per-slot
// strength, and the pool drains at once (see the "GEC slots used"
// column).  PAYG's advantage in its own paper relies on strong lifetime
// variation across blocks and much lower end-of-life fault counts than
// the Aegis paper's model produces.
func PAYG(p Params) (*report.Table, error) {
	const (
		blockBits = 512
		blocks    = 64 // 4 KB page
	)
	lecBits := ecp.OverheadBits(blockBits, 1)
	// A GEC slot carries the scheme state plus a block tag for the
	// mapping structure, as PAYG budgets it.
	gecs := []scheme.Factory{
		core.MustFactory(blockBits, 61), // Aegis 9x61 GEC
		ecp.MustFactory(blockBits, 6),   // pointer-based GEC
	}
	slotBits := func(f scheme.Factory) int { return f.OverheadBits() + plane.CeilLog2(blocks) }

	uniforms := []*core.Factory{
		core.MustFactory(blockBits, 23), // 28 bits/block
		core.MustFactory(blockBits, 31), // 36 bits/block
		core.MustFactory(blockBits, 61), // 67 bits/block
	}

	t := &report.Table{
		Title:  "PAYG: uniform provisioning vs LEC+GEC pooling at equal page overhead (512-bit blocks)",
		Header: []string{"organization", "page overhead bits", "lifetime (page writes)", "faults at death", "GEC slots used"},
		Notes: []string{
			fmt.Sprintf("PAYG rows: ECP1 LEC per block (%d bits) + GEC slot pool; a slot costs its scheme's bits + a %d-bit block tag", lecBits, plane.CeilLog2(blocks)),
			"equal-overhead pools are sized as (uniform page bits − LEC bits) / slot bits",
			"finding: with intra-page wear leveling, escalations burst at end of life — slot COUNT binds, pooling loses to uniform provisioning, and the GEC component choice barely matters",
			scalingNote,
		},
	}

	simCfg := p.simConfig(blockBits, p.PageTrials)
	for _, uf := range uniforms {
		pageBits := uf.OverheadBits() * blocks
		simCfg.Seed = p.schemeSeed("payg-uniform-" + uf.Name())
		rs, err := p.Engine.Pages(uf, simCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			"uniform "+uf.Name(),
			report.Itoa(pageBits),
			report.Ftoa(stats.SummarizeInts(sim.Lifetimes(rs)).Mean),
			report.Ftoa(stats.SummarizeInts(sim.RecoveredFaults(rs)).Mean),
			"-",
		)

		for _, gecFactory := range gecs {
			sb := slotBits(gecFactory)
			slots := (pageBits - lecBits*blocks) / sb
			if slots < 0 {
				slots = 0
			}
			pf, err := payg.NewFactory(blockBits, 1, slots, gecFactory)
			if err != nil {
				return nil, err
			}
			simCfg.Seed = p.schemeSeed("payg-pool-" + uf.Name() + gecFactory.Name())
			rs, err := p.Engine.Pages(pf, simCfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("PAYG ECP1 + %d×%s", slots, gecFactory.Name()),
				report.Itoa(lecBits*blocks+slots*sb),
				report.Ftoa(stats.SummarizeInts(sim.Lifetimes(rs)).Mean),
				report.Ftoa(stats.SummarizeInts(sim.RecoveredFaults(rs)).Mean),
				fmt.Sprintf("%.1f/%d", stats.SummarizeInts(sim.Spent(rs)).Mean, slots),
			)
		}
	}
	return t, nil
}
