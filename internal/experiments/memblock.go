package experiments

import (
	"fmt"

	"aegis/internal/report"
	"aegis/internal/sim"
	"aegis/internal/stats"
)

// MemBlock reruns the Figure 5/6 page study with 256-byte memory blocks
// (last-level-cache-line sized) instead of 4 KB pages.  The paper states
// "the results for the other memory block size (256B) show a similar
// trend" without showing them; this experiment shows them.  Smaller
// memory blocks hold fewer data blocks (4 × 512-bit), so each unit dies
// on its weakest-of-4 rather than weakest-of-64 block and absolute
// counts shift — but the scheme ordering must hold.
func MemBlock(p Params) (*report.Table, error) {
	factories := mustParse(512, "ecp:6", "safer:32", "safer:64", "aegis:23", "aegis:31", "aegis:61")
	t := &report.Table{
		Title:  "Memory-block size: 256 B vs 4 KB units (512-bit data blocks)",
		Header: []string{"scheme", "overhead bits", "faults/256B", "faults/4KB", "faults per data block (256B)", "(4KB)"},
		Notes: []string{
			"the paper reports only 4KB results and asserts the 256B trend is similar; columns 5-6 normalize per data block for comparison",
			scalingNote,
		},
	}
	for _, f := range factories {
		row := []string{f.Name(), report.Itoa(f.OverheadBits())}
		perBlock := make([]float64, 0, 2)
		for _, pageBytes := range []int{256, 4096} {
			cfg := p.simConfig(512, p.PageTrials)
			cfg.PageBytes = pageBytes
			cfg.Seed = p.schemeSeed(fmt.Sprintf("memblock-%s-%d", f.Name(), pageBytes))
			p.Progress.SetPhase(fmt.Sprintf("%s %dB page", f.Name(), pageBytes))
			rs, err := p.Engine.Pages(f, cfg)
			if err != nil {
				return nil, err
			}
			mean := stats.SummarizeInts(sim.RecoveredFaults(rs)).Mean
			row = append(row, report.Ftoa(mean))
			perBlock = append(perBlock, mean/float64(cfg.BlocksPerPage()))
		}
		row = append(row, report.Ftoa(perBlock[0]), report.Ftoa(perBlock[1]))
		t.AddRow(row...)
	}
	return t, nil
}
