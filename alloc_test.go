package aegis_test

import (
	"fmt"
	"testing"

	"aegis/internal/engine"
	"aegis/internal/experiments"
	"aegis/internal/obs"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/xrand"
)

// The allocation gate.  The simulator's trial loop runs millions of
// times per study, so it must not allocate: every worker keeps a
// scratch arena (schemes, blocks, tracers, RNG state) that trials
// reuse.  These tests pin that with testing.AllocsPerRun, whose counts
// are deterministic, so the bounds hold on any host.  Wall-clock cost
// is measured by the bench/ module, not here.
//
// Each row pins two numbers for one kernel, scheme family and
// observation mode:
//
//   - steady state: a call over manyTrials trials may allocate at most
//     allocSlack more than one over warmTrials, which catches any
//     allocation per trial or per block;
//   - set-up: a one-trial call stays under its kernel's ceiling.

const (
	allocBits = 512
	// Scratch buffers that grow with a block's fault count (fault
	// lists, a scheme's write-loop records) reach their working size
	// within the first few trials of a call, so the steady state is
	// measured past warmTrials.  The gap of 64 trials makes a single
	// allocation per trial exceed allocSlack four times over.
	warmTrials = 16
	manyTrials = warmTrials + 64
	allocSlack = 16
)

// allocFamilies is one spec per family of experiments.ParseScheme.
var allocFamilies = []string{
	"aegis:61", "aegis-p:61:4", "aegis-rw:61", "aegis-rw-p:61:4",
	"ecp:6", "safer:32", "safer-cache:32", "rdis:3", "hamming",
}

// allocKernel is one simulator entry point with the set-up ceiling of
// a one-trial call, observed or not.  Ceilings sit at least 25% above
// the largest count measured on go1.24.
type allocKernel struct {
	name string
	ceil float64
	run  func(f scheme.Factory, cfg sim.Config)
}

var allocKernels = []allocKernel{
	{"blocks", 70, func(f scheme.Factory, cfg sim.Config) { sim.Blocks(f, cfg) }},
	{"pages", 380, func(f scheme.Factory, cfg sim.Config) {
		cfg.PageBytes = 512
		sim.Pages(f, cfg)
	}},
	{"curve", 70, func(f scheme.Factory, cfg sim.Config) { sim.FailureCounts(f, cfg, 24, 2, 0.5) }},
}

func allocConfig() sim.Config {
	return sim.Config{BlockBits: allocBits, MeanLife: 60, CoV: 0.25, Seed: 7, Workers: 1}
}

// allocsAt reports the allocations of one run call over trials trials.
func allocsAt(trials int, cfg sim.Config, run func(sim.Config)) float64 {
	cfg.Trials = trials
	return testing.AllocsPerRun(1, func() { run(cfg) })
}

// checkAllocs pins one row: steady-state growth within allocSlack and a
// one-trial call within ceil.
func checkAllocs(t *testing.T, ceil float64, cfg sim.Config, run func(sim.Config)) {
	t.Helper()
	one := allocsAt(1, cfg, run)
	warm := allocsAt(warmTrials, cfg, run)
	many := allocsAt(manyTrials, cfg, run)
	t.Logf("allocs at 1, %d, %d trials: %.0f, %.0f, %.0f", warmTrials, manyTrials, one, warm, many)
	if many-warm > allocSlack {
		t.Errorf("%d trials allocate %.0f, %d trials %.0f: %.0f over the slack of %d",
			manyTrials, many, warmTrials, warm, many-warm-allocSlack, allocSlack)
	}
	if one > ceil {
		t.Errorf("one-trial call allocates %.0f, above its ceiling of %.0f", one, ceil)
	}
}

func skipUnderRace(t *testing.T) {
	// The race runtime makes sync.Pool drop items at random, and the
	// bit-sliced path pools its arenas.
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestKernelAllocs covers every scheme family through each trial
// kernel, with observation off and on.
func TestKernelAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, k := range allocKernels {
		for _, spec := range allocFamilies {
			for _, observed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/obs=%v", k.name, spec, observed), func(t *testing.T) {
					f, err := experiments.ParseScheme(spec, allocBits)
					if err != nil {
						t.Fatal(err)
					}
					cfg := allocConfig()
					if observed {
						cfg.Obs = obs.NewRegistry()
					}
					checkAllocs(t, k.ceil, cfg, func(cfg sim.Config) { k.run(f, cfg) })
				})
			}
		}
	}
}

// TestSlicedPagesAllocs covers the bit-sliced page path.  Its lane
// arenas are pooled across calls, so even a one-trial call allocates
// next to nothing once AllocsPerRun's warm-up call has filled the pool.
func TestSlicedPagesAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := experiments.ParseScheme("aegis:61", allocBits)
	if err != nil {
		t.Fatal(err)
	}
	cfg := allocConfig()
	cfg.PageBytes, cfg.Lanes = 512, 64
	checkAllocs(t, 10, cfg, func(cfg sim.Config) { sim.Pages(f, cfg) })
}

// TestComputeShardAllocs covers one shard compute, the cluster
// worker's entry point, without a cache directory.
func TestComputeShardAllocs(t *testing.T) {
	skipUnderRace(t)
	f, err := experiments.ParseScheme("aegis:61", allocBits)
	if err != nil {
		t.Fatal(err)
	}
	eng := &engine.Engine{}
	checkAllocs(t, 280, allocConfig(), func(cfg sim.Config) {
		if _, err := eng.ComputeShard(f, cfg, engine.KindBlocks, engine.CurveParams{}, 0, cfg.Trials); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRNGAllocs pins the trial RNG at zero: re-seeding a caller-owned
// generator and bulk-filling a block's words allocate nothing.
func TestRNGAllocs(t *testing.T) {
	skipUnderRace(t)
	var rng xrand.Rand
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		rng.Seed(seed)
		benchSink += rng.Uint64()
	}); n != 0 {
		t.Errorf("Seed+Uint64 allocates %.0f per call, want 0", n)
	}
	buf := make([]uint64, 1024)
	if n := testing.AllocsPerRun(100, func() { rng.Fill(buf) }); n != 0 {
		t.Errorf("Fill allocates %.0f per call, want 0", n)
	}
}
