package experiments

import (
	"fmt"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/freep"
	"aegis/internal/report"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/stats"
)

// FreeP weighs two ways to spend reliability bits on a page (§4's
// FREE-p discussion): provision spare blocks for OS-level redirection,
// or upgrade the in-block recovery scheme.  Spares are expensive — each
// costs a full data block plus its scheme overhead — so the paper's
// claim that a strong first line of defense "substantially delays the
// re-direction" should show up as Aegis-without-spares beating
// weaker-scheme-plus-spares at comparable or lower total overhead.
func FreeP(p Params) (*report.Table, error) {
	const (
		blockBits = 512
		nBlocks   = 16 // quarter page keeps the sweep fast; trends match 64
	)
	type combo struct {
		f      scheme.Factory
		spares int
	}
	combos := []combo{
		{ecp.MustFactory(blockBits, 6), 0},
		{ecp.MustFactory(blockBits, 6), 1},
		{ecp.MustFactory(blockBits, 6), 2},
		{ecp.MustFactory(blockBits, 6), 4},
		{core.MustFactory(blockBits, 23), 0},
		{core.MustFactory(blockBits, 23), 2},
		{core.MustFactory(blockBits, 61), 0},
		{core.MustFactory(blockBits, 61), 2},
	}
	t := &report.Table{
		Title:  "FREE-p: spare-block redirection vs stronger in-block schemes (16 × 512-bit blocks)",
		Header: []string{"scheme + spares", "total overhead bits", "lifetime (page writes)", "redirections", "lifetime per overhead bit"},
		Notes: []string{
			"a spare costs a whole data block plus its scheme overhead; scheme upgrades cost a few bits per block",
			"§4: strong in-block recovery substantially delays redirection — compare Aegis rows against ECP6+spares",
			scalingNote,
		},
	}
	for _, c := range combos {
		ff, err := freep.NewFactory(c.f, c.spares)
		if err != nil {
			return nil, err
		}
		cfg := p.simConfig(blockBits, p.PageTrials)
		cfg.PageBytes = nBlocks * blockBits / 8
		cfg.Seed = p.schemeSeed(fmt.Sprintf("freep-%s-%d", c.f.Name(), c.spares))
		rs, err := p.Engine.Pages(ff, cfg)
		if err != nil {
			return nil, err
		}
		overhead := c.f.OverheadBits()*nBlocks + freep.OverheadBits(blockBits, c.f.OverheadBits(), c.spares)
		life := stats.SummarizeInts(sim.Lifetimes(rs)).Mean
		t.AddRow(
			fmt.Sprintf("%s + %d spares", c.f.Name(), c.spares),
			report.Itoa(overhead),
			report.Ftoa(life),
			report.Ftoa(stats.SummarizeInts(sim.Spent(rs)).Mean),
			fmt.Sprintf("%.3f", life/float64(overhead)),
		)
	}
	return t, nil
}
