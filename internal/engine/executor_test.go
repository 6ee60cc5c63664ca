package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"aegis/internal/obs"
	"aegis/internal/sim"
)

// remoteExecutor computes each shard through a second engine's
// ComputeShard, the way a cluster worker does, and counts its calls.
func remoteExecutor(cfg sim.Config, calls *atomic.Int64) Executor {
	f := testFactory()
	remote := &Engine{}
	return func(_ context.Context, t ShardTask) (*Shard, error) {
		calls.Add(1)
		return remote.ComputeShard(f, cfg, t.Kind, t.Curve, t.Lo, t.Hi)
	}
}

// runOutcome is everything a run reports: its payload and what it left
// in the caller's registry and progress.
type runOutcome struct {
	payload  any
	totals   map[string]obs.Totals
	hist     map[string]obs.HistSnapshot
	traffic  obs.ShardTotals
	done     int64
	total    int64
	hits     int64
	misses   int64
	execRuns int64
}

// TestExecutorMatchesLocal: a run whose shards are computed by an
// executor reports exactly what a local run does — merged payload,
// registry totals and histograms, cache traffic and progress — cold and
// from a warm cache, for every shard kind.
func TestExecutorMatchesLocal(t *testing.T) {
	f := testFactory()
	kinds := map[string]func(*Engine, sim.Config) (any, error){
		KindBlocks: func(e *Engine, cfg sim.Config) (any, error) { return e.Blocks(f, cfg) },
		KindPages:  func(e *Engine, cfg sim.Config) (any, error) { return e.Pages(f, cfg) },
		KindCurve:  func(e *Engine, cfg sim.Config) (any, error) { return e.FailureCurve(f, cfg, 6, 4) },
	}
	for kind, runKind := range kinds {
		t.Run(kind, func(t *testing.T) {
			var calls atomic.Int64
			local := &Engine{Shards: 4, Workers: 2, CacheDir: t.TempDir(), Resume: true}
			leased := &Engine{Shards: 4, Workers: 2, CacheDir: t.TempDir(), Resume: true,
				Executor: remoteExecutor(testConfig(0), &calls)}
			run := func(e *Engine) runOutcome {
				t.Helper()
				reg := obs.NewRegistry()
				prog := obs.NewProgress()
				cfg := testConfig(18)
				cfg.Obs = reg
				cfg.Progress = prog
				before := calls.Load()
				payload, err := runKind(e, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ps := prog.Snapshot()
				return runOutcome{payload, reg.Snapshot(), reg.HistSnapshot(), reg.Shards().Totals(),
					ps.TrialsDone, ps.TrialsTotal, ps.CacheHits, ps.CacheMisses, calls.Load() - before}
			}
			for _, pass := range []string{"cold", "warm"} {
				want, got := run(local), run(leased)
				wantCalls := int64(4)
				if pass == "warm" {
					wantCalls = 0
				}
				if got.execRuns != wantCalls {
					t.Errorf("%s: executor ran %d times, want %d", pass, got.execRuns, wantCalls)
				}
				got.execRuns = want.execRuns
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: executor run diverged from local run\nlocal    %+v\nexecutor %+v", pass, want, got)
				}
				if len(want.totals) == 0 || len(want.hist) == 0 {
					t.Errorf("%s: local run recorded no counters or histograms", pass)
				}
				if want.total != 18 || want.done != 18 {
					t.Errorf("%s: progress %d/%d, want 18/18", pass, want.done, want.total)
				}
			}
		})
	}
}

// TestExecutorAlwaysShards: an engine with an executor runs the shard
// loop even with one shard and no cache, where an executor-less engine
// would fall through to a direct sim call.
func TestExecutorAlwaysShards(t *testing.T) {
	var calls atomic.Int64
	e := &Engine{Shards: 1, Executor: remoteExecutor(testConfig(0), &calls)}
	got, err := e.Blocks(testFactory(), testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1", calls.Load())
	}
	if want := sim.Blocks(testFactory(), testConfig(8)); !reflect.DeepEqual(got, want) {
		t.Fatal("single-shard executor run diverged from direct sim.Blocks")
	}
}

// TestExecutorFirstErrorWins: the first executor error stops issue of
// further shards and is returned, and nothing is merged into the
// caller's registry.
func TestExecutorFirstErrorWins(t *testing.T) {
	first := errors.New("lease failed")
	var (
		mu    sync.Mutex
		calls int
	)
	e := &Engine{Shards: 4, Workers: 1, Executor: func(_ context.Context, t ShardTask) (*Shard, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return nil, first
		}
		return nil, errors.New("later failure")
	}}
	reg := obs.NewRegistry()
	cfg := testConfig(8)
	cfg.Obs = reg
	res, err := e.Blocks(testFactory(), cfg)
	if !errors.Is(err, first) {
		t.Fatalf("run returned %v, want the first executor error", err)
	}
	if res != nil {
		t.Fatal("failed run returned results")
	}
	if calls != 1 {
		t.Fatalf("executor ran %d times after the first failure, want 1 call in all", calls)
	}
	if len(reg.Snapshot()) != 0 || len(reg.HistSnapshot()) != 0 {
		t.Fatal("failed run merged counters into the caller's registry")
	}
}

// TestExecutorDrainClosed: a run launched after the drain signal
// returns ErrDraining without a single executor call.
func TestExecutorDrainClosed(t *testing.T) {
	drain := make(chan struct{})
	close(drain)
	var calls atomic.Int64
	e := &Engine{Shards: 1, Drain: drain, Executor: remoteExecutor(testConfig(0), &calls)}
	if _, err := e.Blocks(testFactory(), testConfig(8)); !errors.Is(err, ErrDraining) {
		t.Fatalf("run after drain returned %v, want ErrDraining", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("executor ran %d times after drain, want 0", calls.Load())
	}
}
