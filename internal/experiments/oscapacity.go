package experiments

import (
	"aegis/internal/xrand"
	"fmt"
	"sort"

	"aegis/internal/osmem"
	"aegis/internal/report"
	"aegis/internal/sim"
)

// OSCapacity quantifies the paper's §1.1 motivation: OS-level fault
// handling (page retirement, optionally Dynamic Pairing) drains the
// allocatable pool quickly unless the in-block scheme is strong.  Block
// death times are bootstrapped from the actual block-level Monte Carlo
// of each scheme, pages fail as their blocks die, and the table reports
// the usable-capacity fraction over time for weak (ECP1) versus strong
// (Aegis 9×61) first-line defenses, with and without pairing.
func OSCapacity(p Params) (*report.Table, error) {
	const (
		pages         = 128
		blocksPerPage = 64
	)
	schemes := mustParse(512, "ecp:1", "aegis:61")

	// Capacity thresholds whose crossing times the table reports.
	thresholds := []float64{0.9, 0.5, 0.1}

	cfg := p.simConfig(512, 32) // empirical block-lifetime sample per scheme

	type event struct {
		time  int64
		page  int
		block int
	}

	t := &report.Table{
		Title:  "OS-level capacity: page retirement and Dynamic Pairing over weak vs strong in-block schemes",
		Header: []string{"in-block scheme + OS policy", "writes to <90% capacity", "writes to <50%", "writes to <10%", "vs ECP1 retire (50%)"},
		Notes: []string{
			fmt.Sprintf("%d pages × %d 512-bit blocks; block death times bootstrapped from each scheme's block-level Monte Carlo", pages, blocksPerPage),
			"the paper's §1.1 point: without strong in-block protection the allocatable pool is quickly depleted; pairing only slows the decline",
		},
	}
	var baseline50 float64
	for _, f := range schemes {
		// One event stream per scheme, shared by both OS policies so
		// the retire-vs-pairing comparison is apples to apples.
		cfg.Seed = p.schemeSeed("oscap-" + f.Name())
		rs, err := p.Engine.Blocks(f, cfg)
		if err != nil {
			return nil, err
		}
		sample := sim.BlockLifetimes(rs)
		rng := xrand.New(p.schemeSeed("oscap-events-" + f.Name()))
		evs := make([]event, 0, pages*blocksPerPage)
		for pg := 0; pg < pages; pg++ {
			for bl := 0; bl < blocksPerPage; bl++ {
				bt := sample[rng.Intn(len(sample))]
				// Jitter the bootstrap so ties don't cluster.
				bt += int64(rng.NormFloat64() * float64(bt) * 0.02)
				if bt < 1 {
					bt = 1
				}
				evs = append(evs, event{time: bt, page: pg, block: bl})
			}
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].time < evs[j].time })

		for _, pairing := range []bool{false, true} {
			pool, err := osmem.NewPool(pages, blocksPerPage, pairing)
			if err != nil {
				panic(err)
			}
			crossing := make([]int64, len(thresholds))
			next := 0
			for _, ev := range evs {
				pool.FailBlock(ev.page, ev.block)
				frac := float64(pool.Capacity().Usable()) / float64(pages)
				for next < len(thresholds) && frac < thresholds[next] {
					crossing[next] = ev.time
					next++
				}
				if next == len(thresholds) {
					break
				}
			}
			for ; next < len(thresholds); next++ {
				crossing[next] = evs[len(evs)-1].time
			}
			if baseline50 == 0 {
				baseline50 = float64(crossing[1])
			}
			label := f.Name() + ", retire"
			if pairing {
				label = f.Name() + ", pairing"
			}
			rel := "-"
			if baseline50 > 0 {
				rel = fmt.Sprintf("%.1fx", float64(crossing[1])/baseline50)
			}
			t.AddRow(label, report.Itoa(int(crossing[0])), report.Itoa(int(crossing[1])),
				report.Itoa(int(crossing[2])), rel)
		}
	}
	return t, nil
}
