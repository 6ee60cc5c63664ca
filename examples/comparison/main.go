// Comparison: a miniature head-to-head of every recovery scheme on the
// same workload — the scenario that motivates the paper's evaluation.
// Each scheme protects 512-bit blocks whose cells wear out under random
// writes; we report mean block lifetime, faults tolerated at death, and
// overhead, exactly the axes of Figures 5–7.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"os"

	"aegis/internal/experiments"
	"aegis/internal/report"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/stats"
)

func main() {
	factories := []scheme.Factory{scheme.NoneFactory{Bits: 512}}
	for _, spec := range []string{
		"hamming", "ecp:6", "safer:32", "safer:64", "safer-cache:64", "rdis:3",
		"aegis:23", "aegis:61", "aegis-rw:61", "aegis-rw-p:61:9",
	} {
		f, err := experiments.ParseScheme(spec, 512)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		factories = append(factories, f)
	}

	cfg := sim.Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  1500, // scaled endurance; see DESIGN.md §3
		CoV:       0.25,
		Trials:    30,
		Seed:      7,
	}

	tbl := &report.Table{
		Title:  "512-bit block, random writes until death (30 blocks per scheme, scaled endurance)",
		Header: []string{"scheme", "overhead bits", "overhead %", "mean lifetime (writes)", "vs unprotected", "faults at death"},
	}
	var baseline float64
	for _, f := range factories {
		rs := sim.Blocks(f, cfg)
		life := stats.SummarizeInts(sim.BlockLifetimes(rs)).Mean
		var faults float64
		for _, r := range rs {
			faults += float64(r.FaultsAtDeath)
		}
		faults /= float64(len(rs))
		if f.Name() == "None" {
			baseline = life
		}
		rel := "-"
		if baseline > 0 {
			rel = fmt.Sprintf("%.2fx", life/baseline)
		}
		tbl.AddRow(f.Name(), report.Itoa(f.OverheadBits()),
			fmt.Sprintf("%.1f%%", 100*float64(f.OverheadBits())/512),
			report.Ftoa(life), rel, report.Ftoa(faults))
	}
	tbl.Notes = []string{
		"rw variants, SAFER64-cache and RDIS-3 consult the idealized fail cache of §2.4",
		"Hamming(72,64) is the ECC yardstick the paper bounds overhead against (12.5%)",
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
