package sim

import (
	"path/filepath"
	"reflect"
	"testing"

	"aegis/internal/core"
	"aegis/internal/obs"
	"aegis/internal/scheme"
)

// TestBlocksDrainCounters checks that a block study drains every trial's
// operation statistics and block deaths into the registry.
func TestBlocksDrainCounters(t *testing.T) {
	reg := obs.NewRegistry()
	f := core.MustFactory(512, 61)
	cfg := Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  300,
		CoV:       0.25,
		Trials:    4,
		Seed:      1,
		Obs:       reg,
	}
	rs := Blocks(f, cfg)
	tot, ok := reg.Snapshot()[f.Name()]
	if !ok {
		t.Fatalf("no counters registered for %q (have %v)", f.Name(), reg.Snapshot())
	}
	var wantWrites int64
	for _, r := range rs {
		wantWrites += r.Lifetime
	}
	// Every successful write plus each trial's final failing request.
	if tot.Writes != wantWrites+int64(cfg.Trials) {
		t.Fatalf("Writes = %d, want %d successful + %d failing", tot.Writes, wantWrites, cfg.Trials)
	}
	if tot.BlockDeaths != int64(cfg.Trials) {
		t.Fatalf("BlockDeaths = %d, want %d", tot.BlockDeaths, cfg.Trials)
	}
	if tot.VerifyReads < tot.Writes || tot.RawWrites < tot.Writes {
		t.Fatalf("implausible totals: %+v", tot)
	}
	if tot.Inversions == 0 || tot.Salvages == 0 {
		t.Fatalf("blocks written to death recorded no inversions/salvages: %+v", tot)
	}
	if tot.PageDeaths != 0 {
		t.Fatalf("block study recorded page deaths: %+v", tot)
	}
	var wantBits int64
	for _, r := range rs {
		wantBits += r.BitWrites
	}
	if tot.BitWrites != wantBits {
		t.Fatalf("BitWrites = %d, want sum of per-trial results = %d", tot.BitWrites, wantBits)
	}
	if tot.BitWrites == 0 {
		t.Fatal("blocks written to death recorded no cell programming pulses")
	}
}

// TestPagesDrainCounters checks page-death accounting and that a nil
// registry stays a no-op.
func TestPagesDrainCounters(t *testing.T) {
	reg := obs.NewRegistry()
	f := core.MustFactory(512, 61)
	cfg := Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  300,
		CoV:       0.25,
		Trials:    2,
		Seed:      1,
		Obs:       reg,
	}
	Pages(f, cfg)
	tot := reg.Snapshot()[f.Name()]
	if tot.PageDeaths != int64(cfg.Trials) {
		t.Fatalf("PageDeaths = %d, want %d", tot.PageDeaths, cfg.Trials)
	}
	if tot.BitWrites == 0 {
		t.Fatal("page study drained no cell programming pulses")
	}
	if tot.BlockDeaths != int64(cfg.Trials) {
		t.Fatalf("BlockDeaths = %d, want %d (one killer block per page)", tot.BlockDeaths, cfg.Trials)
	}
	if tot.Writes == 0 {
		t.Fatal("no writes drained")
	}

	// Identical run without a registry must not panic and must produce
	// identical results (observation is passive).
	cfg.Obs = nil
	Pages(f, cfg)
}

// TestBlocksDrainHistograms checks the per-trial distributions: every
// trial contributes a lifetime, a repartition count and an extra-write
// count, and salvage depths arrive through the tracer.
func TestBlocksDrainHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	f := core.MustFactory(512, 61)
	cfg := Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  300,
		CoV:       0.25,
		Trials:    4,
		Seed:      1,
		Obs:       reg,
	}
	rs := Blocks(f, cfg)
	h, ok := reg.HistSnapshot()[f.Name()]
	if !ok {
		t.Fatalf("no histograms registered for %q", f.Name())
	}
	if h.Lifetime.Count != int64(cfg.Trials) {
		t.Fatalf("Lifetime.Count = %d, want %d", h.Lifetime.Count, cfg.Trials)
	}
	var maxLife int64
	for _, r := range rs {
		if r.Lifetime > maxLife {
			maxLife = r.Lifetime
		}
	}
	if h.Lifetime.Max != maxLife {
		t.Fatalf("Lifetime.Max = %d, want %d", h.Lifetime.Max, maxLife)
	}
	if h.Repartitions.Count != int64(cfg.Trials) || h.ExtraWrites.Count != int64(cfg.Trials) {
		t.Fatalf("per-block histograms missing trials: %+v", h)
	}
	tot := reg.Snapshot()[f.Name()]
	if h.ExtraWrites.Sum != tot.RawWrites-tot.Writes {
		t.Fatalf("ExtraWrites.Sum = %d, want RawWrites-Writes = %d", h.ExtraWrites.Sum, tot.RawWrites-tot.Writes)
	}
	if h.SalvageDepth.Count != tot.Salvages {
		t.Fatalf("SalvageDepth.Count = %d, want one observation per salvage = %d", h.SalvageDepth.Count, tot.Salvages)
	}
	if h.SalvageDepth.Count > 0 && h.SalvageDepth.Min < 2 {
		t.Fatalf("salvaged request with < 2 verify passes: %+v", h.SalvageDepth)
	}
}

// TestConcurrentDrains runs a parallel study and checks the registry
// totals are identical to a serial run — the counters and histograms
// are shared across sim workers, so this is the -race test for the
// whole drain path (counters, histograms, tracer, progress).
func TestConcurrentDrains(t *testing.T) {
	run := func(workers int) (obs.Totals, obs.HistSnapshot, obs.ProgressSnapshot) {
		reg := obs.NewRegistry()
		prog := obs.NewProgress()
		f := core.MustFactory(512, 61)
		cfg := Config{
			BlockBits: 512,
			PageBytes: 4096,
			MeanLife:  300,
			CoV:       0.25,
			Trials:    8,
			Seed:      1,
			Workers:   workers,
			Obs:       reg,
			Progress:  prog,
		}
		Blocks(f, cfg)
		return reg.Snapshot()[f.Name()], reg.HistSnapshot()[f.Name()], prog.Snapshot()
	}
	serialTot, serialHist, _ := run(1)
	parallelTot, parallelHist, parallelProg := run(4)
	if serialTot != parallelTot {
		t.Fatalf("parallel totals diverge:\n serial   %+v\n parallel %+v", serialTot, parallelTot)
	}
	if !reflect.DeepEqual(serialHist.Lifetime, parallelHist.Lifetime) ||
		serialHist.SalvageDepth.Count != parallelHist.SalvageDepth.Count ||
		serialHist.ExtraWrites.Sum != parallelHist.ExtraWrites.Sum {
		t.Fatalf("parallel histograms diverge:\n serial   %+v\n parallel %+v", serialHist, parallelHist)
	}
	if parallelProg.TrialsDone != 8 || parallelProg.TrialsTotal != 8 {
		t.Fatalf("progress = %d/%d trials, want 8/8", parallelProg.TrialsDone, parallelProg.TrialsTotal)
	}
}

// TestEventTraceFromStudies checks the engine emits a valid decision
// trace: block deaths come from the schemes, page deaths from the
// engine, and every event is labeled with scheme and trial.
func TestEventTraceFromStudies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	w, err := obs.NewEventWriter(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := core.MustFactory(512, 61)
	cfg := Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  300,
		CoV:       0.25,
		Trials:    2,
		Seed:      1,
		Workers:   2,
		Trace:     w,
	}
	Pages(f, cfg)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range tr.Events {
		kinds[e.Kind]++
		if e.Scheme != f.Name() {
			t.Fatalf("event with wrong scheme label: %+v", e)
		}
		if e.Trial < 0 || e.Trial >= cfg.Trials {
			t.Fatalf("event with out-of-range trial: %+v", e)
		}
		if e.Kind == "block_death" || e.Kind == "page_death" {
			if e.Faults == 0 {
				t.Fatalf("death event without fault count: %+v", e)
			}
		}
	}
	// A page study written to death must repartition, invert, salvage
	// and die at both granularities.
	for _, k := range []string{"repartition", "inversion", "salvage", "block_death", "page_death"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q events in trace (have %v)", k, kinds)
		}
	}
	if kinds["page_death"] != cfg.Trials {
		t.Fatalf("page_death count = %d, want %d", kinds["page_death"], cfg.Trials)
	}
}

// TestUntracedSchemesStayUntraced checks the zero-cost path: without a
// registry or trace, no tracer is installed.
func TestUntracedSchemesStayUntraced(t *testing.T) {
	f := core.MustFactory(512, 61)
	s := f.New().(*core.Aegis)
	ts := &trialScratch{schemes: []scheme.Scheme{s}}
	cfg := Config{}
	cfg.attachTracer(ts, 0, f.Name(), 0, nil)
	// attachTracer with both sinks nil must leave the scheme alone; a
	// non-nil tracer would make every write pay for event assembly.
	if len(ts.tracers) != 0 || s.OpStats().Requests != 0 {
		t.Fatal("attachTracer touched the scheme")
	}
}

// TestFailureCurveDrainsCounters checks fault-injection runs account
// block deaths for trials that died within the probed fault range.
func TestFailureCurveDrainsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	f := scheme.NoneFactory{Bits: 512}
	cfg := Config{
		BlockBits: 512,
		PageBytes: 4096,
		MeanLife:  300,
		CoV:       0.25,
		Trials:    8,
		Seed:      1,
		Obs:       reg,
	}
	// The unprotected baseline dies at the first stuck-at-Wrong fault,
	// so with 8 writes per step every trial dies within maxFaults.
	FailureCurve(f, cfg, 4, 8)
	tot := reg.Snapshot()[f.Name()]
	if tot.BlockDeaths != int64(cfg.Trials) {
		t.Fatalf("BlockDeaths = %d, want %d", tot.BlockDeaths, cfg.Trials)
	}
}
