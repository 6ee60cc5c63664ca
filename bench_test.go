// Package-level benchmarks, one per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).  Each
// benchmark regenerates its artifact at the quick preset; the printed
// CSV/table outputs come from cmd/aegisbench, these benches measure cost.
//
//	go test -bench=. -benchmem
package aegis_test

import (
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/experiments"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/xrand"
)

// benchParams shrinks the quick preset so a full -bench=. sweep stays in
// benchmark territory (each iteration still runs the whole experiment).
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.MeanLife = 300
	p.PageTrials = 2
	p.BlockTrials = 6
	p.CurveTrials = 30
	p.SurvivalPages = 6
	return p
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		r, err := experiments.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// benchmarkFig5Lanes runs the Figure 5 page study over the
// sliced-capable subset of the 512-bit roster at 64 page trials — the
// bit-sliced mode's home turf (64 trials = 64 lanes in one machine
// word).  The Sliced/Scalar pair measures the same work at lanes=64
// and lanes=1; the differential tests pin the outputs byte-identical,
// so the pair differs only in wall-clock and allocations.
func benchmarkFig5Lanes(b *testing.B, lanes int) {
	b.Helper()
	roster := []scheme.Factory{
		scheme.NoneFactory{Bits: 512},
		ecp.MustFactory(512, 6),
		core.MustFactory(512, 23),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for si, f := range roster {
			cfg := sim.Config{
				BlockBits: 512,
				PageBytes: 4096,
				MeanLife:  300,
				CoV:       0.25,
				Trials:    64,
				Seed:      int64(i*len(roster) + si + 1),
				Lanes:     lanes,
			}
			if rs := sim.Pages(f, cfg); len(rs) != cfg.Trials {
				b.Fatalf("%s: %d results, want %d", f.Name(), len(rs), cfg.Trials)
			}
		}
	}
}

func BenchmarkFig5Sliced(b *testing.B) { benchmarkFig5Lanes(b, 64) }
func BenchmarkFig5Scalar(b *testing.B) { benchmarkFig5Lanes(b, 1) }

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }

// rngTrials is the per-op workload of the RNG seeding benchmark: one
// "trial" = seed a generator, draw one word — the exact shape of the
// simulator's per-trial RNG setup, which re-seeds a single caller-owned
// state array in place (DESIGN.md §17).
const rngTrials = 256

var benchSink uint64

func BenchmarkTrialRNGSeed(b *testing.B) {
	b.Run("xrand", func(b *testing.B) {
		b.ReportAllocs()
		var rng xrand.Rand
		var s uint64
		for i := 0; i < b.N; i++ {
			for t := 0; t < rngTrials; t++ {
				rng.Seed(int64(t + 1))
				s += rng.Uint64()
			}
		}
		benchSink = s
	})
}

// BenchmarkRandFill measures bulk random-word generation through the
// devirtualized Fill; its stream identity with math/rand is pinned by
// internal/xrand's differential suite.
func BenchmarkRandFill(b *testing.B) {
	buf := make([]uint64, 1024) // a 64Kbit data block's worth of words
	b.Run("xrand", func(b *testing.B) {
		b.ReportAllocs()
		rng := xrand.New(1)
		for i := 0; i < b.N; i++ {
			rng.Fill(buf)
		}
		benchSink += buf[0]
	})
}

func BenchmarkAblationWear(b *testing.B)  { benchExperiment(b, "ablation-wear") }
func BenchmarkAblationStuck(b *testing.B) { benchExperiment(b, "ablation-stuck") }
func BenchmarkAblationRDIS(b *testing.B)  { benchExperiment(b, "ablation-rdis") }
func BenchmarkTraffic(b *testing.B)       { benchExperiment(b, "traffic") }
func BenchmarkLatency(b *testing.B)       { benchExperiment(b, "latency") }
func BenchmarkSoftFTC(b *testing.B)       { benchExperiment(b, "softftc") }
func BenchmarkMemBlock(b *testing.B)      { benchExperiment(b, "memblock") }
func BenchmarkOSCapacity(b *testing.B)    { benchExperiment(b, "oscapacity") }
func BenchmarkPAYG(b *testing.B)          { benchExperiment(b, "payg") }
func BenchmarkDevice(b *testing.B)        { benchExperiment(b, "device") }
func BenchmarkFreeP(b *testing.B)         { benchExperiment(b, "freep") }
