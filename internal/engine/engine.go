// Package engine is the sharded, resumable experiment runner of the
// harness.  It splits a simulation's trial range into deterministic
// shards — shard s of k covers a fixed contiguous slice of the trial
// range, and each trial's RNG derives from (seed, global trial index)
// via sim.Config.TrialOffset — so the shard count never changes
// results: a sharded run is byte-identical to an unsharded one.
//
// Each completed shard can be persisted as an aegis.shard/v1 JSON file
// under a content-addressed key (SHA-256 over the canonicalized
// configuration, the scheme name, the trial range and the code
// version).  A rerun with -resume loads the shards that exist and only
// computes the rest, which makes interrupted runs cheap to finish and
// unchanged reruns nearly free; cache traffic is reported through
// internal/obs counters and the live progress line.
//
// The engine is the only shard pipeline in the repository.  A cluster
// coordinator runs its jobs through an Engine too, with an Executor
// that leases each missed shard to a worker instead of simulating it
// locally; splitting, scheduling, caching, progress and merging are
// the same code either way.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"aegis/internal/obs"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// ErrDraining is returned when the engine's Drain channel closes before
// every shard has been issued: the run stopped cleanly at a shard
// boundary.  Shards already in flight finish and persist, so a resumed
// run completes from the cache.
var ErrDraining = errors.New("engine: draining: run stopped at a shard boundary")

// Engine configures sharded execution.  The zero value and the nil
// pointer both mean "run directly": every method falls through to the
// corresponding internal/sim call, so experiment code can route through
// an *Engine unconditionally.  An Engine must not be copied after first
// use; share it by pointer (methods are safe for concurrent use).
type Engine struct {
	// Shards is the number of deterministic slices to split each
	// simulation's trial range into (≤ 1 = no splitting).
	Shards int
	// CacheDir, when set, persists every computed shard as an
	// aegis.shard/v1 file named <key>.json under this directory.
	CacheDir string
	// Resume, when set, loads shards already present in CacheDir
	// instead of recomputing them.  Requires CacheDir.
	Resume bool
	// Workers is the number of shards computed concurrently
	// (0 = NumCPU, ≤ 1 after clamping = serial).  Shard results are
	// merged in trial order and every shard drains into a private
	// obs registry, so the worker count never changes results,
	// counters or histograms — only wall-clock time.
	Workers int
	// Drain, when non-nil, soft-stops the run when closed: no new
	// shard is started, shards already in flight finish and persist,
	// and the run returns ErrDraining.  The serving daemon shares one
	// drain channel across every job for SIGTERM handling.  Contrast
	// with sim.Config.Ctx, which is the hard stop: a cancelled context
	// aborts mid-shard and the aborted shard is discarded unpersisted.
	Drain <-chan struct{}
	// Logger, when non-nil, receives one structured record per shard
	// served from the cache or simulated here (an Executor's shards are
	// logged where they run) with the shard's identity — scheme, kind,
	// trial range, short cache key — and compute duration.  The serving
	// daemon passes a logger already carrying request and job IDs, which
	// completes the correlation chain request → job → shard.  Records
	// are emitted from shard workers, so the handler must be safe for
	// concurrent use (slog's built-ins are).
	Logger *slog.Logger
	// Executor, when non-nil, computes every shard the cache cannot
	// serve in place of local simulation, and makes the engine always
	// run the shard loop, even unsharded and uncached.  The engine still
	// splits, schedules, consults the cache, credits progress, persists
	// and merges.
	Executor Executor

	// afterShard, when set, runs after each shard completes (computed
	// or loaded).  Calls are serialized.  Returning an error aborts
	// the run — tests use it to simulate a kill mid-run and then
	// resume.
	afterShard func(scheme, kind string, lo, hi int) error
	// hookMu serializes afterShard across shard workers.
	hookMu sync.Mutex
}

// Executor computes one shard somewhere other than the engine's own
// process — the cluster coordinator leases it to a worker.  It must
// return a shard valid at t's address (ValidateShard) carrying that
// shard's counter and histogram deltas, or an error; the engine calls
// it from shard workers, so it must be safe for concurrent use.  ctx is
// the run's hard-stop context.
type Executor func(ctx context.Context, t ShardTask) (*Shard, error)

// ShardTask is the content address of one shard of a run: what an
// Executor needs to have it computed elsewhere and to check the answer.
type ShardTask struct {
	// Scheme is the factory's name, under which the shard is labeled
	// and keyed.
	Scheme string
	Kind   string
	// Curve is zero unless Kind is KindCurve or KindTraffic.
	Curve      CurveParams
	ConfigHash string
	Key        string
	// Lo and Hi bound the shard's global trial range [Lo, Hi).
	Lo, Hi int
}

// enabled reports whether the engine changes execution at all.
func (e *Engine) enabled() bool {
	return e != nil && (e.Shards > 1 || e.CacheDir != "" || e.Executor != nil)
}

// shardCount returns the effective shard count, clamped to [1, trials].
func (e *Engine) shardCount(trials int) int {
	k := e.Shards
	if k < 1 {
		k = 1
	}
	if k > trials {
		k = trials
	}
	return k
}

// workerCount returns the effective shard-worker count for n shards:
// Workers, defaulting to NumCPU, clamped to [1, n].
func (e *Engine) workerCount(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SplitTrials slices [0, n) into k contiguous ranges whose sizes differ
// by at most one, earlier shards taking the extra trial.  Degenerate
// requests are clamped rather than producing empty shards: k > n yields
// n single-trial ranges, k < 1 yields one range, and n ≤ 0 yields none.
func SplitTrials(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	ranges := make([][2]int, 0, k)
	base, extra := n/k, n%k
	lo := 0
	for s := 0; s < k; s++ {
		size := base
		if s < extra {
			size++
		}
		ranges = append(ranges, [2]int{lo, lo + size})
		lo += size
	}
	return ranges
}

// Blocks runs sim.Blocks through the shard engine.
func (e *Engine) Blocks(f scheme.Factory, cfg sim.Config) ([]sim.BlockResult, error) {
	s, err := e.payload(f, cfg, KindBlocks, CurveParams{})
	if err != nil {
		return nil, err
	}
	return s.Blocks, nil
}

// Pages runs sim.Pages through the shard engine.  A page that holds no
// whole block is refused: no write could ever kill it, so the run would
// not end.
func (e *Engine) Pages(f scheme.Factory, cfg sim.Config) ([]sim.PageResult, error) {
	if cfg.BlockBits <= 0 || cfg.BlocksPerPage() < 1 {
		return nil, fmt.Errorf("engine: a %d-byte page holds no %d-bit block", cfg.PageBytes, cfg.BlockBits)
	}
	s, err := e.payload(f, cfg, KindPages, CurveParams{})
	if err != nil {
		return nil, err
	}
	return s.Pages, nil
}

// FailureCurve runs sim.FailureCurve through the shard engine.
func (e *Engine) FailureCurve(f scheme.Factory, cfg sim.Config, maxFaults, writesPerStep int) ([]float64, error) {
	return e.FailureCurveBias(f, cfg, maxFaults, writesPerStep, 0.5)
}

// FailureCurveBias runs sim.FailureCurveBias through the shard engine.
// Shards carry the mergeable dead counts (sim.FailureCounts); the
// merged counts divide by the full trial count (sim.CurvePoints), so
// the curve matches an unsharded run exactly.
func (e *Engine) FailureCurveBias(f scheme.Factory, cfg sim.Config, maxFaults, writesPerStep int, bias float64) ([]float64, error) {
	cp := CurveParams{MaxFaults: maxFaults, WritesPerStep: writesPerStep, Bias: bias}
	s, err := e.payload(f, cfg, KindCurve, cp)
	if err != nil {
		return nil, err
	}
	return sim.CurvePoints(s.Dead, cfg.Trials), nil
}

// TrafficCurve runs the write-traffic probe through the shard engine.
// Shards carry the mergeable per-fault-count sums (sim.TrafficSums);
// the merged sums average to the same points as an unsharded run.
func (e *Engine) TrafficCurve(f scheme.Factory, cfg sim.Config, maxFaults, writesPerStep int) ([]sim.TrafficPoint, error) {
	s, err := e.payload(f, cfg, KindTraffic, CurveParams{MaxFaults: maxFaults, WritesPerStep: writesPerStep})
	if err != nil {
		return nil, err
	}
	return sim.TrafficPoints(s.Traffic), nil
}

// payload runs the whole simulation and returns a shard carrying its
// payload: through the shard loop when the engine is enabled, otherwise
// by one direct simulation.  The
// direct path still honors the hard stop (a cancelled cfg.Ctx means sim
// returned partial results, which must surface as an error, not as
// data) and refuses to start once the drain channel has closed.
func (e *Engine) payload(f scheme.Factory, cfg sim.Config, kind string, cp CurveParams) (*Shard, error) {
	if e.enabled() && cfg.Trials > 0 {
		return e.run(f, cfg, kind, cp)
	}
	if e != nil {
		select {
		case <-e.Drain:
			return nil, ErrDraining
		default:
		}
	}
	s := &Shard{Kind: kind}
	simulate(f, cfg, cp, s)
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return nil, fmt.Errorf("engine: run aborted: %w", cfg.Ctx.Err())
	}
	return s, nil
}

// simulate runs the simulation s.Kind names over cfg's trial range and
// stores the result as s's payload.
func simulate(f scheme.Factory, cfg sim.Config, cp CurveParams, s *Shard) {
	switch s.Kind {
	case KindBlocks:
		s.Blocks = sim.Blocks(f, cfg)
	case KindPages:
		s.Pages = sim.Pages(f, cfg)
	case KindCurve:
		s.Dead = sim.FailureCounts(f, cfg, cp.MaxFaults, cp.WritesPerStep, cp.Bias)
	case KindTraffic:
		s.Traffic = sim.TrafficSums(f, cfg, cp.MaxFaults, cp.WritesPerStep)
	}
}

// ComputeShard loads or computes the single shard covering global
// trials [lo, hi) of the run (cfg, kind, cp) — the cluster worker's
// entry point.  cfg.Trials and cfg.TrialOffset are ignored; the range
// is authoritative.  The shard consults this engine's cache first,
// computes on a miss, and persists under its content-addressed key,
// exactly like one slice of a full run — which is what makes a fleet of
// workers byte-identical to a single node: the shard a worker returns
// is the shard a local run would have produced at the same address.
func (e *Engine) ComputeShard(f scheme.Factory, cfg sim.Config, kind string, cp CurveParams, lo, hi int) (*Shard, error) {
	if hi <= lo {
		return nil, fmt.Errorf("engine: empty shard range [%d,%d)", lo, hi)
	}
	switch kind {
	case KindBlocks, KindPages, KindCurve, KindTraffic:
	default:
		return nil, fmt.Errorf("engine: unknown shard kind %q", kind)
	}
	return e.oneShard(f, cfg, newTask(f, cfg, kind, cp, lo, hi))
}

// newTask addresses the shard covering global trials [lo, hi).
func newTask(f scheme.Factory, cfg sim.Config, kind string, cp CurveParams, lo, hi int) ShardTask {
	hash := ConfigHash(cfg, kind, cp)
	return ShardTask{
		Scheme:     f.Name(),
		Kind:       kind,
		Curve:      cp,
		ConfigHash: hash,
		Key:        ShardKey(hash, f.Name(), lo, hi, obs.GitSHA()),
		Lo:         lo,
		Hi:         hi,
	}
}

// run is the shard loop: split the trial range, load what the cache
// has, compute the rest (oneShard), merge, and fold the merged
// observability deltas back into the caller's registry.
//
// Shards are scheduled over a bounded worker pool (workerCount): shard
// s is issued in order but completes whenever its worker finishes.
// Because trial RNG derives from the global trial index, every shard
// drains into a private registry, and Merge reassembles payloads in
// trial order, results are byte-identical at every worker count and
// for every executor.  The first shard error stops issue of further
// shards and wins; a closed Drain channel stops issue with ErrDraining
// after in-flight shards persist; a cancelled cfg.Ctx aborts in-flight
// shards mid-trial and discards them unpersisted.
func (e *Engine) run(f scheme.Factory, cfg sim.Config, kind string, cp CurveParams) (*Shard, error) {
	ranges := SplitTrials(cfg.Trials, e.shardCount(cfg.Trials))
	shards := make([]*Shard, len(ranges))

	var (
		failMu   sync.Mutex
		firstErr error
	)
	stop := make(chan struct{})
	var stopOnce sync.Once
	fail := func(err error) {
		failMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		failMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}

	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}
	// stopReason polls the soft- and hard-stop signals without blocking;
	// the feeder consults it before issuing each shard.
	stopReason := func() error {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return cfg.Ctx.Err()
		}
		select {
		case <-e.Drain:
			return ErrDraining
		default:
		}
		return nil
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := range ranges {
			if err := stopReason(); err != nil {
				fail(err)
				return
			}
			select {
			case next <- i:
			case <-stop:
				return
			case <-e.Drain:
				fail(ErrDraining)
				return
			case <-ctxDone:
				fail(cfg.Ctx.Err())
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < e.workerCount(len(ranges)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Re-check the stop signals per task: the feeder's
				// send and a closing Drain/Ctx can race, and a shard
				// handed over after the signal must not start.
				if err := stopReason(); err != nil {
					fail(err)
					return
				}
				// Shard ranges live in global trial coordinates, so a
				// shard is addressed identically no matter how the
				// caller offset the run.
				lo := cfg.TrialOffset + ranges[i][0]
				hi := cfg.TrialOffset + ranges[i][1]
				s, err := e.oneShard(f, cfg, newTask(f, cfg, kind, cp, lo, hi))
				if err != nil {
					fail(err)
					return
				}
				shards[i] = s
			}
		}()
	}
	wg.Wait()

	failMu.Lock()
	err := firstErr
	failMu.Unlock()
	if err != nil {
		return nil, err
	}

	merged, err := Merge(shards)
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		// Computed shards drained into private registries (or were
		// computed elsewhere), so the merged deltas are the run's
		// entire contribution.
		cfg.Obs.AddTotals(f.Name(), merged.Counters)
		cfg.Obs.AddHist(f.Name(), merged.Histograms)
	}
	return merged, nil
}

// oneShard loads or computes the shard t: the cache is consulted first
// (hit: credit progress and return; absent or corrupt: recompute;
// incompatible: refuse), then the shard is computed — by the Executor
// when one is set, otherwise simulated here against a private obs
// registry — persisted, and handed to the completion hook.  A context
// cancellation during a local compute discards the partial shard
// without persisting it.
func (e *Engine) oneShard(f scheme.Factory, cfg sim.Config, t ShardTask) (*Shard, error) {
	if e.Resume && e.CacheDir != "" {
		s, err := LoadShard(shardPath(e.CacheDir, t.Key), t.Key, t.ConfigHash, t.Scheme, t.Kind, t.Lo, t.Hi)
		if err == nil {
			err = t.checkProbe(s)
		}
		switch {
		case err == nil:
			// Cache hit: credit the shard's trials to the live
			// progress so the run's totals match a computed run.
			cfg.Progress.AddTotal(s.Trials())
			cfg.Progress.Done(s.Trials())
			cfg.Progress.CacheHit(1)
			if cfg.Obs != nil {
				cfg.Obs.Shards().CacheHits.Inc()
			}
			e.logShard("shard cache hit", s, 0)
			return s, e.shardDone(s)
		case errors.Is(err, fs.ErrNotExist), errors.Is(err, ErrCorruptShard):
			// Absent or unreadable: an ordinary miss, recompute.
		default:
			// Present but incompatible (schema, key, config hash or
			// range disagreement): refuse rather than guess.
			return nil, err
		}
	}

	cfg.Progress.CacheMiss(1)
	if cfg.Obs != nil {
		cfg.Obs.Shards().CacheMisses.Inc()
	}
	var (
		s       *Shard
		elapsed time.Duration
	)
	if e.Executor != nil {
		ctx := cfg.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		var err error
		if s, err = e.Executor(ctx, t); err != nil {
			return nil, err
		}
		// The executor computed without this run's progress sink, so
		// credit the shard here: the run reports the same totals a
		// local compute would.
		cfg.Progress.AddTotal(s.Trials())
		cfg.Progress.Done(s.Trials())
	} else {
		s = &Shard{
			Schema:      ShardSchema,
			Key:         t.Key,
			ConfigHash:  t.ConfigHash,
			Scheme:      t.Scheme,
			Kind:        t.Kind,
			TrialLo:     t.Lo,
			TrialHi:     t.Hi,
			CodeVersion: obs.GitSHA(),
			CreatedAt:   time.Now().UTC(),
		}
		priv := obs.NewRegistry()
		shardCfg := cfg
		shardCfg.Trials = t.Hi - t.Lo
		shardCfg.TrialOffset = t.Lo
		shardCfg.Obs = priv
		start := time.Now()
		simulate(f, shardCfg, t.Curve, s)
		elapsed = time.Since(start)
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			// The hard stop fired mid-shard: the payload is partial, so
			// it must never be persisted or merged.
			return nil, fmt.Errorf("engine: %s aborted: %w", shardDesc(s), cfg.Ctx.Err())
		}
		s.Counters = priv.Snapshot()[t.Scheme]
		s.Histograms = priv.HistSnapshot()[t.Scheme]
	}
	if e.CacheDir != "" {
		if _, err := WriteShard(e.CacheDir, s); err != nil {
			return nil, fmt.Errorf("engine: persist %s: %w", shardDesc(s), err)
		}
		if cfg.Obs != nil {
			cfg.Obs.Shards().Persisted.Inc()
		}
	}
	if e.Executor == nil {
		// Only a shard simulated here is "computed" here: an executor's
		// shard is logged where it ran.
		e.logShard("shard computed", s, elapsed)
	}
	return s, e.shardDone(s)
}

// checkProbe refuses a loaded curve or traffic shard whose payload does
// not hold one count per fault count 0…MaxFaults of t's probe.  The
// shard file does not record MaxFaults, so LoadShard cannot check it.
func (t ShardTask) checkProbe(s *Shard) error {
	if t.Kind != KindCurve && t.Kind != KindTraffic {
		return nil
	}
	if n := s.probeLen(); n != t.Curve.MaxFaults+1 {
		return fmt.Errorf("engine: %s holds %d counts, want %d for %d faults", shardDesc(s), n, t.Curve.MaxFaults+1, t.Curve.MaxFaults)
	}
	return nil
}

// logShard emits one structured record for a finished shard.  The key
// is truncated to its first 12 hex digits — enough to find the cache
// file, short enough to read.
func (e *Engine) logShard(msg string, s *Shard, elapsed time.Duration) {
	if e == nil || e.Logger == nil {
		return
	}
	attrs := []any{
		slog.String("scheme", s.Scheme),
		slog.String("kind", s.Kind),
		slog.Int("trial_lo", s.TrialLo),
		slog.Int("trial_hi", s.TrialHi),
		slog.String("shard_key", shortKey(s.Key)),
	}
	if elapsed > 0 {
		attrs = append(attrs, slog.Duration("elapsed", elapsed))
	}
	e.Logger.Info(msg, attrs...)
}

// shortKey abbreviates a content-address to its first 12 hex digits.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// shardDone invokes the test hook, if any; calls are serialized so the
// hook needs no locking of its own under concurrent shard workers.
func (e *Engine) shardDone(s *Shard) error {
	if e.afterShard == nil {
		return nil
	}
	e.hookMu.Lock()
	defer e.hookMu.Unlock()
	return e.afterShard(s.Scheme, s.Kind, s.TrialLo, s.TrialHi)
}
