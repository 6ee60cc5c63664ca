// Package sim is the Monte Carlo engine behind the paper's evaluation
// (§3.1): it writes random data into simulated PCM until blocks or pages
// die, under the paper's model of per-cell normal lifetimes (25 % CoV),
// differential writes, verification reads, and perfect wear leveling.
//
// Two run shapes, each with one scalar kernel, provide four studies:
//
//   - wear (the wear kernel): Pages writes a 4 KB page of data blocks to
//     death, and a page dies with its first unrecoverable block
//     (Figures 5, 6, 7, 11, 12, 13); Blocks is a one-block page
//     (Figure 10);
//   - fault injection (the fault kernel): FailureCounts probes block
//     failure probability as a function of fault count (Figure 8), and
//     TrafficSums the write traffic of the surviving blocks (§3.2).
//
// Device-level survival curves (Figure 9) are the stats.Survival
// transform of page lifetimes: with perfect wear leveling, writes are
// spread uniformly over live pages, so a device is fully described by the
// i.i.d. per-page lifetime sample.
//
// All runs are deterministic: trial t of a run with seed s uses an RNG
// seeded with h(s, t), so results are independent of worker scheduling.
package sim

import (
	"context"
	"runtime"
	"sync"

	"aegis/internal/xrand"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/obs"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Config parameterizes a Monte Carlo run.
type Config struct {
	// BlockBits is the data block size (the paper uses 256 and 512).
	BlockBits int
	// PageBytes is the memory-block (page) size; the paper reports 4 KB
	// pages.
	PageBytes int
	// MeanLife is the mean per-cell endurance in bit-writes.  The paper
	// uses 1e8; the default presets scale this down (see DESIGN.md §3 —
	// orderings and fault-injection curves are scale-invariant, lifetime
	// improvement ratios are not).
	MeanLife float64
	// CoV is the lifetime coefficient of variation (paper: 0.25).
	CoV float64
	// Trials is the number of independent blocks/pages to simulate.
	Trials int
	// MaxWrites caps a single trial (safety valve; 0 = no cap).
	MaxWrites int64
	// Seed makes the run reproducible.
	Seed int64
	// TrialOffset shifts the global trial index of the run's first trial.
	// Trial t of this run uses the RNG of global trial TrialOffset+t, so
	// a run of Trials=N at offset 0 produces exactly the concatenation of
	// any contiguous split [0,k)+[k,N).  The shard engine
	// (internal/engine) relies on this to make shard boundaries invisible
	// in the results.
	TrialOffset int
	// Workers limits parallelism (0 = GOMAXPROCS).
	Workers int
	// Lanes selects the bit-sliced execution mode for schemes that
	// support it (scheme.SlicedFactory): groups of up to Lanes trials
	// pack into the bit lanes of each machine word and run in lockstep,
	// with results byte-identical to the scalar path because every lane
	// keeps the RNG of its global trial index.  0 (the default) and 1
	// run the scalar path; 2–64 slice every group, including a clamped
	// remainder group (values above 64 clamp to 64).  Schemes without a
	// sliced implementation, the PulseWear ablation and event-traced
	// runs always use the scalar path.  See DESIGN.md §13.
	Lanes int
	// Ctx, when non-nil, cancels the run: every trial checks the
	// context before starting, so a cancelled or expired run stops
	// within one trial's worth of work.  Trials completed before the
	// cancellation hold valid results; the remainder of the result
	// slice stays zero.  Callers that need all-or-nothing semantics
	// (the shard engine, the serving daemon) check Ctx.Err() after the
	// run and discard partial output.  Like the observability sinks,
	// Ctx never affects the results of the trials that do run.
	Ctx context.Context
	// PulseWear switches from the paper's request-scoped wear model
	// (each cell charged at most one pulse per write request, §3.1) to
	// fully physical per-pulse wear, where a scheme's extra inversion
	// rewrites wear cells immediately.  The default (false) matches the
	// paper; true is the ablation DESIGN.md discusses.
	PulseWear bool
	// Obs, when non-nil, receives each trial's operation counts and
	// block/page deaths under the scheme factory's name.  Draining
	// happens once per trial, so the counters cost nothing on the write
	// hot path.  Histograms (lifetime, repartitions, salvage depth,
	// extra writes) are recorded into the same registry.
	Obs *obs.Registry
	// Trace, when non-nil, receives sampled scheme decision events
	// (repartitions, inversions, salvages, block and page deaths).
	Trace *obs.EventWriter
	// Progress, when non-nil, is ticked once per completed trial; the
	// run's total is registered when the study starts.
	Progress *obs.Progress
}

// BlocksPerPage returns how many data blocks one page holds.
func (c Config) BlocksPerPage() int { return c.PageBytes * 8 / c.BlockBits }

func (c Config) lifetime() dist.Lifetime {
	return dist.Normal{MeanLife: c.MeanLife, CoV: c.CoV}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// trialSeed derives the deterministic RNG seed of one global trial
// index, independent of worker scheduling.
func trialSeed(seed int64, trial int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(trial+1)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int64(h)
}

// cancelled reports whether the run's context (if any) is done.
func (c Config) cancelled() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// trialScratch is one worker goroutine's reusable arena: scheme
// instances, their tracers, PCM blocks, and the data vector survive
// across the worker's trials, so steady-state trials allocate nothing
// (alloc_test.go pins this per kernel and scheme family).  Trial
// results are unaffected: blocks re-sample their lifetimes from the
// per-trial RNG in construction order, and schemes are Reset to their
// post-construction state (falling back to Factory.New for schemes
// that are not Resettable).
type trialScratch struct {
	schemes []scheme.Scheme
	// tracers holds one tracer per block slot, rebound per trial.  They
	// are pointers because schemes keep the tracer they were given: a
	// grown []trialTracer would move elements out from under them.
	tracers []*trialTracer
	blocks  []*pcm.Block
	data    *bitvec.Vector
	perm    []int
	// rng is the worker's trial RNG state, reseeded in place per trial
	// (xrand.Rand.Seed): the ~4.9 KB generator state is part of the
	// arena, so trials allocate no RNG source (DESIGN.md §17).
	rng xrand.Rand
}

// constructor builds per-block scheme instances: a scheme.Factory, or
// the Page of a PageFactory's trial.
type constructor interface {
	New() scheme.Scheme
}

// scheme returns the worker's reusable scheme instance for block slot i
// of the current trial, resetting the previous trial's instance when
// the scheme supports it and constructing a fresh one otherwise.
func (ts *trialScratch) scheme(f constructor, i int) scheme.Scheme {
	for len(ts.schemes) <= i {
		ts.schemes = append(ts.schemes, nil)
	}
	if s := ts.schemes[i]; s != nil {
		if r, ok := s.(scheme.Resettable); ok {
			r.Reset()
			return s
		}
	}
	s := f.New()
	ts.schemes[i] = s
	return s
}

// block returns the worker's reusable n-bit block for slot i, reset
// with lifetimes drawn from d using rng exactly as pcm.NewBlock draws
// them.
func (ts *trialScratch) block(n int, d dist.Lifetime, rng *xrand.Rand, i int) *pcm.Block {
	for len(ts.blocks) <= i {
		ts.blocks = append(ts.blocks, nil)
	}
	if b := ts.blocks[i]; b != nil && b.Size() == n {
		b.Reset(d, rng)
		return b
	}
	b := pcm.NewBlock(n, d, rng)
	ts.blocks[i] = b
	return b
}

// dataVec returns the worker's reusable n-bit data vector.
func (ts *trialScratch) dataVec(n int) *bitvec.Vector {
	if ts.data == nil || ts.data.Len() != n {
		ts.data = bitvec.New(n)
	}
	return ts.data
}

// permutation returns a random permutation of [0,n) in the worker's
// reusable buffer, drawn from rng exactly as rng.Perm(n) draws it.
func (ts *trialScratch) permutation(n int, rng *xrand.Rand) []int {
	if len(ts.perm) != n {
		ts.perm = make([]int, n)
	}
	return rng.PermInto(ts.perm)
}

// forEachTrial fans cfg.Trials trials out over a worker pool, reporting
// the study's trial count and per-trial completion to cfg.Progress.
// The body receives the run-local trial index and its worker's scratch
// arena; its RNG is derived from the global index cfg.TrialOffset+trial,
// so results are independent of worker count and scheduling.  When
// cfg.Ctx is cancelled, trials not yet started are skipped and the loop
// returns early.
func forEachTrial(cfg Config, body func(trial int, rng *xrand.Rand, ts *trialScratch)) {
	cfg.Progress.AddTotal(cfg.Trials)
	run := func(t int, ts *trialScratch) {
		if cfg.cancelled() {
			return
		}
		ts.rng.Seed(trialSeed(cfg.Seed, cfg.TrialOffset+t))
		body(t, &ts.rng, ts)
		cfg.Progress.Done(1)
	}
	workers := cfg.workers()
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	if workers <= 1 {
		ts := &trialScratch{}
		for t := 0; t < cfg.Trials; t++ {
			if cfg.cancelled() {
				return
			}
			run(t, ts)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts := &trialScratch{}
			for t := range next {
				run(t, ts)
			}
		}()
	}
	for t := 0; t < cfg.Trials; t++ {
		if cfg.cancelled() {
			break
		}
		next <- t
	}
	close(next)
	wg.Wait()
}

// drain adds one block slot's scheme operation statistics (schemes
// without OpStats contribute none) and programming pulses into the
// run's counters and histograms; either may be nil.  The per-trial
// lifetime is observed by the study loops, and the salvage depth
// arrives through the tracer (it is per-request, not recoverable from
// the lifetime totals OpStats reports).
func drain(sc *obs.SchemeCounters, h *obs.SchemeHistograms, s scheme.Scheme, b *pcm.Block) {
	if sc != nil {
		sc.BitWrites.Add(b.Stats().BitWrites)
	}
	rep, ok := s.(scheme.OpReporter)
	if !ok {
		return
	}
	st := rep.OpStats()
	if sc != nil {
		sc.Writes.Add(st.Requests)
		sc.RawWrites.Add(st.RawWrites)
		sc.VerifyReads.Add(st.VerifyReads)
		sc.Inversions.Add(st.Inversions)
		sc.Repartitions.Add(st.Repartitions)
		sc.Salvages.Add(st.Salvages)
	}
	if h != nil {
		h.Repartitions.Observe(st.Repartitions)
		h.ExtraWrites.Observe(st.RawWrites - st.Requests)
	}
}

// sinks resolves the registry counter and histogram slots trials of
// this run drain into, or nils when observation is off.
func (c Config) sinks(f scheme.Factory) (*obs.SchemeCounters, *obs.SchemeHistograms) {
	if c.Obs == nil {
		return nil, nil
	}
	return c.Obs.Scheme(f.Name()), c.Obs.Histograms(f.Name())
}

// trialTracer adapts one trial's scheme decision events into the
// salvage-depth histogram and the sampled event trace.  The engine
// rebinds a block slot's tracer to each trial so events carry the
// trial index without the schemes knowing about it.
type trialTracer struct {
	scheme string
	trial  int
	hist   *obs.SchemeHistograms
	trace  *obs.EventWriter
}

// TraceEvent implements scheme.Tracer.
func (t *trialTracer) TraceEvent(e scheme.TraceEvent) {
	if t.hist != nil && e.Kind == scheme.TraceSalvage {
		t.hist.SalvageDepth.Observe(int64(e.Passes))
	}
	if t.trace == nil {
		return
	}
	t.trace.Emit(obs.Event{
		Scheme: t.scheme,
		Trial:  t.trial,
		Kind:   e.Kind.String(),
		From:   e.From,
		To:     e.To,
		Groups: e.Groups,
		Passes: e.Passes,
		Faults: e.Faults,
		Cause:  e.Cause,
	})
}

// attachTracer installs the slot-i tracer of ts on slot i's scheme
// when histograms or event tracing want decision events.  With both
// off, schemes stay untraced and pay only a nil check per potential
// event.  Events carry the global trial index (TrialOffset applied), so
// traces from sharded runs line up with the merged results.
func (c Config) attachTracer(ts *trialScratch, i int, name string, trial int, h *obs.SchemeHistograms) {
	if h == nil && c.Trace == nil {
		return
	}
	tb, ok := ts.schemes[i].(scheme.Traceable)
	if !ok {
		return
	}
	for len(ts.tracers) <= i {
		ts.tracers = append(ts.tracers, new(trialTracer))
	}
	t := ts.tracers[i]
	*t = trialTracer{scheme: name, trial: c.TrialOffset + trial, hist: h, trace: c.Trace}
	tb.SetTracer(t)
}

// BlockResult describes one block written to death.  The JSON form is
// part of the aegis.shard/v1 format (internal/engine).
type BlockResult struct {
	// Lifetime is the number of successful block writes.
	Lifetime int64 `json:"lifetime"`
	// FaultsAtDeath is the block's stuck-cell count when it failed.
	FaultsAtDeath int `json:"faults_at_death"`
	// BitWrites is the total programming pulses the block absorbed,
	// including the scheme's inversion rewrites.
	BitWrites int64 `json:"bit_writes"`
}

// Blocks simulates cfg.Trials independent blocks under the given scheme,
// each written with fresh random data until the scheme reports the block
// unrecoverable.  A scalar block trial is a one-block page of the wear
// kernel that never asks for spares.  Sliced-capable schemes run
// lane-packed per cfg.Lanes; the results are byte-identical either way.
func Blocks(f scheme.Factory, cfg Config) []BlockResult {
	results := make([]BlockResult, cfg.Trials)
	if sf, groups := cfg.slicePlan(f); groups != nil {
		blocksSliced(sf, cfg, groups, results)
		return results
	}
	wear(f, cfg, 1, nil, func(trial int, o wearTrial, _ Page) {
		results[trial] = BlockResult{Lifetime: o.writes, FaultsAtDeath: o.faults, BitWrites: o.bitWrites}
	})
	return results
}

// PageResult describes one page written to death.  The JSON form is
// part of the aegis.shard/v1 format (internal/engine).
type PageResult struct {
	// Lifetime is the number of successful page writes (each page write
	// rewrites every block of the page with fresh random data).
	Lifetime int64 `json:"lifetime"`
	// RecoveredFaults is the total stuck-cell count across the page's
	// blocks when the first unrecoverable block killed it — the paper's
	// "average number of recoverable faults in a 4KB page" (Figure 5).
	RecoveredFaults int `json:"recovered_faults"`
	// Spent is what a PageFactory's page used up of its page-level
	// budget (Page.Spent) by the time it died; always 0, and omitted
	// from the JSON, for ordinary schemes.
	Spent int `json:"spent,omitempty"`
}

// PageFactory is an optional interface of scheme factories whose
// blocks share page-level state — a spare-block budget (FREE-p) or a
// pool of escalation slots (PAYG).  The page loop asks for one Page per
// page trial and builds every block's scheme from it.
type PageFactory interface {
	scheme.Factory
	NewPage() Page
}

// Page is the shared state of one page trial.
type Page interface {
	// New returns a scheme instance for one of the page's blocks.
	New() scheme.Scheme
	// Spare is asked only after a block's write request failed.  True
	// means the page replaces the dead block: the loop resets the
	// block's slot with fresh cells (drawn from the trial RNG exactly as
	// pcm.NewBlock draws) and a fresh scheme, and retries the same data.
	Spare(dead *pcm.Block) bool
	// Spent counts what the page has used up of its budget.
	Spent() int
}

// Pages simulates cfg.Trials independent 4 KB pages under the given
// scheme.  A page dies when any of its blocks takes an unrecoverable
// write that the page (a PageFactory's) does not replace with a spare.
// Sliced-capable schemes run lane-packed per cfg.Lanes; the results are
// byte-identical either way.
func Pages(f scheme.Factory, cfg Config) []PageResult {
	results := make([]PageResult, cfg.Trials)
	if sf, groups := cfg.slicePlan(f); groups != nil {
		pagesSliced(sf, cfg, groups, results)
		return results
	}
	var newPage func() Page
	if pf, ok := f.(PageFactory); ok {
		newPage = pf.NewPage
	}
	sc, _ := cfg.sinks(f)
	wear(f, cfg, cfg.BlocksPerPage(), newPage, func(trial int, o wearTrial, page Page) {
		results[trial] = PageResult{Lifetime: o.writes, RecoveredFaults: o.faults}
		if page != nil {
			results[trial].Spent = page.Spent()
		}
		// The page died with its first unrecoverable block.  Block deaths
		// come from the schemes; the page granularity is the engine's, so
		// the engine reports it.
		if o.died && sc != nil {
			sc.PageDeaths.Inc()
		}
		if o.died && cfg.Trace != nil {
			cfg.Trace.Emit(obs.Event{Scheme: f.Name(), Trial: cfg.TrialOffset + trial, Kind: "page_death", Faults: o.faults})
		}
	})
	return results
}

// wearTrial is what one trial of the wear kernel produced: its
// successful page writes, the stuck cells and programming pulses of its
// blocks at the end, and whether it ended on an unrecoverable write
// rather than at cfg.MaxWrites.
type wearTrial struct {
	writes, bitWrites int64
	faults            int
	died              bool
}

// wear is the scalar wear kernel behind Blocks and Pages.  A trial
// draws the lifetimes of an nBlocks-block page and writes fresh random
// data into every block, block by block, until a write fails that the
// trial's page (from newPage, when non-nil) does not replace with a
// spare.  It then drains the trial's counters and histograms and hands
// its outcome to done.
func wear(f scheme.Factory, cfg Config, nBlocks int, newPage func() Page, done func(trial int, o wearTrial, page Page)) {
	sc, h := cfg.sinks(f)
	name := f.Name()
	life := cfg.lifetime()
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		var ctor constructor = f
		var page Page
		if newPage != nil {
			page = newPage()
			ctor = page
		}
		for i := 0; i < nBlocks; i++ {
			ts.block(cfg.BlockBits, life, rng, i)
			ts.scheme(ctor, i)
			cfg.attachTracer(ts, i, name, trial, h)
		}
		blocks := ts.blocks[:nBlocks]
		schemes := ts.schemes[:nBlocks]
		data := ts.dataVec(cfg.BlockBits)
		var o wearTrial
	pageWrites:
		for cfg.MaxWrites == 0 || o.writes < cfg.MaxWrites {
			for i := range blocks {
				bitvec.RandomInto(data, rng)
				for writeRequest(cfg.PulseWear, schemes[i], blocks[i], data) != nil {
					if page == nil || !page.Spare(blocks[i]) {
						o.died = true
						break pageWrites
					}
					// The dead block's slot takes a spare: drain what it
					// did, then reset cells and scheme in place.
					drain(sc, h, schemes[i], blocks[i])
					if sc != nil {
						sc.BlockDeaths.Inc()
					}
					ts.block(cfg.BlockBits, life, rng, i)
					ts.scheme(ctor, i)
					cfg.attachTracer(ts, i, name, trial, h)
				}
			}
			o.writes++
		}
		for i := range blocks {
			o.faults += blocks[i].FaultCount()
			o.bitWrites += blocks[i].Stats().BitWrites
			drain(sc, h, schemes[i], blocks[i])
		}
		if sc != nil && o.died {
			sc.BlockDeaths.Inc()
		}
		if h != nil {
			h.Lifetime.Observe(o.writes)
		}
		done(trial, o, page)
	})
}

// writeRequest performs one scheme write under the configured wear
// model (Config.PulseWear).
func writeRequest(pulseWear bool, s scheme.Scheme, blk *pcm.Block, data *bitvec.Vector) error {
	if pulseWear {
		return s.Write(blk, data)
	}
	return WriteRequest(s, blk, data)
}

// WriteRequest performs one scheme write as one write request under
// the paper's request-scoped wear model (§3.1): however many raw writes
// the scheme issues, each cell is charged at most one pulse.
func WriteRequest(s scheme.Scheme, blk *pcm.Block, data *bitvec.Vector) error {
	blk.BeginRequest()
	err := s.Write(blk, data)
	blk.EndRequest()
	return err
}

// FailureCurve injects faults one at a time into immortal blocks and
// reports, for each fault count 1…maxFaults, the probability that the
// block has become unrecoverable (Figure 8).  After each injection the
// scheme performs writesPerStep random writes; a failed write marks the
// block dead for that and all higher fault counts.  Stuck values are
// drawn uniformly, as in the paper.
func FailureCurve(f scheme.Factory, cfg Config, maxFaults, writesPerStep int) []float64 {
	return FailureCurveBias(f, cfg, maxFaults, writesPerStep, 0.5)
}

// FailureCurveBias is FailureCurve with a configurable probability that
// an injected cell sticks at 1.  bias 0.5 is the paper's model; 0 or 1
// makes every fault the same type, the friendliest case for schemes that
// distinguish stuck-at-Wrong from stuck-at-Right cells (ablation).
func FailureCurveBias(f scheme.Factory, cfg Config, maxFaults, writesPerStep int, bias float64) []float64 {
	return CurvePoints(FailureCounts(f, cfg, maxFaults, writesPerStep, bias), cfg.Trials)
}

// CurvePoints turns FailureCounts' dead counts into the failure curve:
// point nf is the share of the trials dead once nf faults had been
// injected, for nf = 1…len(dead)−1; point 0 stays 0.
func CurvePoints(dead []int, trials int) []float64 {
	curve := make([]float64, len(dead))
	for nf := 1; nf < len(dead); nf++ {
		curve[nf] = float64(dead[nf]) / float64(trials)
	}
	return curve
}

// FailureCounts is the mergeable core of the failure-curve probe:
// dead[nf] counts the trials whose block was unrecoverable once nf
// faults had been injected.  Counts from disjoint trial ranges of the
// same configuration sum to the counts of the combined range, which is
// what lets internal/engine shard and cache curve experiments.
func FailureCounts(f scheme.Factory, cfg Config, maxFaults, writesPerStep int, bias float64) []int {
	stuck := func(rng *xrand.Rand) bool { return rng.Float64() < bias }
	return injectFaults(f, cfg, maxFaults, writesPerStep, stuck, nil)
}

// injectFaults is the fault-injection kernel behind FailureCounts and
// TrafficSums.  A trial gives a fresh immortal block the faults of a
// random permutation of its cells one at a time, stuck drawing each
// fault's stuck-at value; after each injection the scheme makes
// writesPerStep random request writes, and the first failed write ends
// the trial.  dead[nf] counts the trials unrecoverable once nf faults
// had been injected.  observe, when non-nil, receives an OpReporter
// scheme's statistics before and after each step the block survived;
// trial workers call it concurrently.
func injectFaults(f scheme.Factory, cfg Config, maxFaults, writesPerStep int,
	stuck func(*xrand.Rand) bool, observe func(nf int, before, after scheme.OpStats)) []int {
	dead := make([]int, maxFaults+1)
	var mu sync.Mutex
	sc, h := cfg.sinks(f)
	name := f.Name()
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		blk := ts.block(cfg.BlockBits, dist.Immortal{}, nil, 0)
		s := ts.scheme(f, 0)
		cfg.attachTracer(ts, 0, name, trial, h)
		var rep scheme.OpReporter
		if observe != nil {
			rep, _ = s.(scheme.OpReporter)
		}
		data := ts.dataVec(cfg.BlockBits)
		positions := ts.permutation(cfg.BlockBits, rng)
		diedAt := maxFaults + 1
	steps:
		for nf := 1; nf <= maxFaults && nf <= len(positions); nf++ {
			blk.InjectFault(positions[nf-1], stuck(rng))
			var before scheme.OpStats
			if rep != nil {
				before = rep.OpStats()
			}
			for w := 0; w < writesPerStep; w++ {
				bitvec.RandomInto(data, rng)
				if writeRequest(cfg.PulseWear, s, blk, data) != nil {
					diedAt = nf
					break steps
				}
			}
			if rep != nil {
				observe(nf, before, rep.OpStats())
			}
		}
		// Fault-injection probes have no lifetime; only the recovery
		// distributions are meaningful here.
		drain(sc, h, s, blk)
		if sc != nil && diedAt <= maxFaults {
			sc.BlockDeaths.Inc()
		}
		mu.Lock()
		for nf := diedAt; nf <= maxFaults; nf++ {
			dead[nf]++
		}
		mu.Unlock()
	})
	return dead
}

// Lifetimes extracts the lifetime column of page results.
func Lifetimes(rs []PageResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Lifetime
	}
	return out
}

// BlockLifetimes extracts the lifetime column of block results.
func BlockLifetimes(rs []BlockResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Lifetime
	}
	return out
}

// RecoveredFaults extracts the recovered-fault column of page results.
func RecoveredFaults(rs []PageResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r.RecoveredFaults)
	}
	return out
}

// Spent extracts the page-budget column (PageResult.Spent) of page
// results.
func Spent(rs []PageResult) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r.Spent)
	}
	return out
}
