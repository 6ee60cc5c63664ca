package experiments

import (
	"fmt"

	"aegis/internal/device"
	"aegis/internal/report"
	"aegis/internal/stats"
	"aegis/internal/wearlevel"
	"aegis/internal/workload"
)

// Device runs the full stack end to end — Zipf traffic through
// randomized Start-Gap onto scheme-protected pages with OS retirement
// and Dynamic Pairing — and reports how many page writes each in-block
// scheme sustains before the device drops below half capacity.  This is
// the deployment view the paper's layered evaluation implies but never
// shows in one piece.
func Device(p Params) *report.Table {
	const (
		pages     = 32
		pageBytes = 1024 // 16 blocks of 512 bits per page: fast but real
		reps      = 4
	)
	schemes := mustParse(512, "ecp:6", "safer:32", "aegis:23", "aegis:61")
	t := &report.Table{
		Title:  "End-to-end device: Zipf traffic + randomized Start-Gap + OS pairing, by in-block scheme",
		Header: []string{"scheme", "overhead bits", "writes to half capacity", "vs ECP6", "redirected", "pair-served"},
		Notes: []string{
			fmt.Sprintf("%d pages × %d bytes, Zipf(1.2) traffic, start-gap-rand(psi=32), pairing on; mean of %d devices", pages, pageBytes, reps),
			scalingNote,
		},
	}
	var baseline float64
	for _, f := range schemes {
		var lifetimes, redirected, paired []int64
		for rep := 0; rep < reps; rep++ {
			seed := p.schemeSeed(fmt.Sprintf("device-%s-%d", f.Name(), rep))
			zipf, err := workload.NewZipf(pages, 1.2, seed)
			if err != nil {
				panic(err)
			}
			lev, err := wearlevel.NewRandomizedStartGap(pages, 32, seed)
			if err != nil {
				panic(err)
			}
			d, err := device.New(device.Config{
				Pages:     pages,
				PageBytes: pageBytes,
				BlockBits: 512,
				MeanLife:  p.MeanLife,
				CoV:       p.CoV,
				Scheme:    f,
				Leveler:   lev,
				Workload:  zipf,
				Pairing:   true,
				Seed:      seed,
			})
			if err != nil {
				panic(err)
			}
			lifetimes = append(lifetimes, d.Run(0.5))
			st := d.Stats()
			redirected = append(redirected, st.Redirected)
			paired = append(paired, st.PairServed)
		}
		mean := stats.SummarizeInts(lifetimes).Mean
		if baseline == 0 {
			baseline = mean
		}
		t.AddRow(f.Name(), report.Itoa(f.OverheadBits()),
			report.Ftoa(mean), fmt.Sprintf("%.2fx", mean/baseline),
			report.Ftoa(stats.SummarizeInts(redirected).Mean),
			report.Ftoa(stats.SummarizeInts(paired).Mean))
	}
	return t
}
