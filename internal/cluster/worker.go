package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"aegis/internal/engine"
	"aegis/internal/obs"
	"aegis/pkg/client"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name is the worker's fleet identity; it must be unique and stable
	// across heartbeats (default: derived by cmd/aegisd from host+port).
	Name string
	// CacheDir, when set, is the worker's local shard cache: a re-leased
	// shard it already computed is served from disk.
	CacheDir string
	// Lanes overrides the bit-sliced lane width like the daemon flag of
	// the same name (0 = the request's value, itself scalar by default).
	Lanes int
	// Metrics receives the worker's instrument families (nil =
	// unregistered).
	Metrics *obs.Metrics
	// Logger receives worker records (nil = log nothing).
	Logger *slog.Logger
	// HTTPClient overrides the transport used to reach the coordinator.
	HTTPClient *http.Client
}

// Worker computes leased shards.  It serves ComputePath over HTTP and
// keeps its coordinator registration alive from Run.  Compute calls are
// pure engine work: the lease's normalized spec reconstructs the scheme
// factory and simulation config, engine.ComputeShard keys and computes
// the shard in global trial coordinates, and the shard document goes
// back as the response.  A worker built from different source refuses
// leases (the derived shard key disagrees), so a mixed-version fleet
// degrades to explicit errors, never to silently unmergeable shards.
type Worker struct {
	opts WorkerOptions
	log  *slog.Logger
	eng  *engine.Engine

	leases   atomic.Int64
	computes atomic.Int64
	hits     atomic.Int64
	refused  atomic.Int64
}

// NewWorker builds a worker and registers its metric families.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Logger == nil {
		opts.Logger = slog.New(discardHandler{})
	}
	w := &Worker{
		opts: opts,
		log:  opts.Logger,
		eng: &engine.Engine{
			CacheDir: opts.CacheDir,
			Resume:   opts.CacheDir != "",
			Logger:   opts.Logger,
		},
	}
	if m := opts.Metrics; m != nil {
		m.CounterFunc("aegis_worker_leases_total",
			"Leases this worker accepted.", func() float64 { return float64(w.leases.Load()) })
		m.CounterFunc("aegis_worker_leases_refused_total",
			"Leases refused (schema or code-version disagreement).", func() float64 { return float64(w.refused.Load()) })
		m.CounterFunc("aegis_worker_shards_computed_total",
			"Leased shards computed locally.", func() float64 { return float64(w.computes.Load()) })
		m.CounterFunc("aegis_worker_shard_cache_hits_total",
			"Leased shards served from the worker's cache.", func() float64 { return float64(w.hits.Load()) })
	}
	return w
}

// Handler returns the worker's HTTP surface: the compute endpoint plus
// a health probe.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ComputePath, w.handleCompute)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]any{
			"status": "ok",
			"role":   "worker",
			"name":   w.opts.Name,
			"leases": w.leases.Load(),
		})
	})
	return mux
}

// handleCompute runs one lease.  Refusals are 4xx with a JSON error
// (the coordinator treats any failure as grounds to steal the lease);
// a computed shard answers 200 with a LeaseResult.
func (w *Worker) handleCompute(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 4<<20))
	if err != nil {
		httpError(rw, http.StatusBadRequest, "read lease: "+err.Error())
		return
	}
	var lease Lease
	if err := decodeStrict(body, &lease); err != nil {
		w.refused.Add(1)
		httpError(rw, http.StatusBadRequest, "undecodable lease: "+err.Error())
		return
	}
	res, status, err := w.compute(r.Context(), &lease)
	if err != nil {
		if status/100 == 4 {
			w.refused.Add(1)
		}
		httpError(rw, status, err.Error())
		return
	}
	writeJSON(rw, http.StatusOK, res)
}

// compute validates a lease against this worker's own derivation and
// executes it.  The returned status is the HTTP answer for errors.
func (w *Worker) compute(ctx context.Context, lease *Lease) (*LeaseResult, int, error) {
	if lease.Schema != LeaseSchema {
		return nil, http.StatusBadRequest,
			fmt.Errorf("lease schema %q, this worker speaks %q", lease.Schema, LeaseSchema)
	}
	if lease.TrialHi <= lease.TrialLo {
		return nil, http.StatusBadRequest,
			fmt.Errorf("empty lease trial range [%d,%d)", lease.TrialLo, lease.TrialHi)
	}
	spec := lease.Spec
	f, err := spec.Normalize()
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("lease spec: %w", err)
	}
	cfg := spec.SimConfig()
	cfg.Workers = 1 // parallelism lives at the lease level, as in the daemon
	cfg.Ctx = ctx
	if w.opts.Lanes > 0 {
		cfg.Lanes = w.opts.Lanes
	}
	// Re-derive the shard's address with THIS binary's git SHA.  A
	// coordinator built from different source derives a different key;
	// refusing here (409) is what keeps a skewed fleet from computing
	// shards the coordinator would cache under the wrong bytes.
	hash := engine.ConfigHash(cfg, lease.Kind, lease.Curve)
	if hash != lease.ConfigHash {
		return nil, http.StatusConflict,
			fmt.Errorf("config hash disagreement: lease says %.12s…, this worker derives %.12s…", lease.ConfigHash, hash)
	}
	key := engine.ShardKey(hash, f.Name(), lease.TrialLo, lease.TrialHi, obs.GitSHA())
	if key != lease.ShardKey {
		return nil, http.StatusConflict,
			fmt.Errorf("shard key disagreement (code version skew?): lease says %.12s…, this worker derives %.12s…",
				lease.ShardKey, key)
	}

	w.leases.Add(1)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	start := time.Now()
	s, err := w.eng.ComputeShard(f, cfg, lease.Kind, lease.Curve, lease.TrialLo, lease.TrialHi)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("compute shard: %w", err)
	}
	hit := reg.Shards().Totals().CacheHits > 0
	if hit {
		w.hits.Add(1)
	} else {
		w.computes.Add(1)
	}
	w.log.Info("lease computed",
		slog.String("lease", lease.LeaseID),
		slog.String("job", lease.JobID),
		slog.String("shard_key", shortKey(s.Key)),
		slog.Int("trial_lo", s.TrialLo),
		slog.Int("trial_hi", s.TrialHi),
		slog.Bool("cache_hit", hit),
		slog.Duration("elapsed", time.Since(start)))
	return &LeaseResult{
		Schema:   LeaseSchema,
		LeaseID:  lease.LeaseID,
		ShardKey: s.Key,
		Worker:   w.opts.Name,
		CacheHit: hit,
		Shard:    s,
	}, http.StatusOK, nil
}

// Run keeps the worker registered with the coordinator until ctx ends:
// register, then heartbeat at a third of the granted TTL, re-registering
// whenever the coordinator forgot us (its restart, our expiry).
// Transient failures are retried with backoff — a worker outliving a
// coordinator restart rejoins the fleet by itself.
func (w *Worker) Run(ctx context.Context, coordinatorURL, selfURL string) error {
	cl, err := client.New(coordinatorURL, client.Options{HTTPClient: w.opts.HTTPClient})
	if err != nil {
		return fmt.Errorf("cluster: coordinator URL: %w", err)
	}
	reg, err := json.Marshal(RegisterRequest{
		Name:        w.opts.Name,
		BaseURL:     selfURL,
		CodeVersion: obs.GitSHA(),
	})
	if err != nil {
		return fmt.Errorf("cluster: encode registration: %w", err)
	}

	ttl := time.Duration(0)
	attempt := 0
	register := func() error {
		raw, err := cl.RegisterWorker(ctx, reg)
		if err != nil {
			return err
		}
		var resp RegisterResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("cluster: undecodable registration response: %w", err)
		}
		ttl = time.Duration(resp.TTLSeconds * float64(time.Second))
		w.log.Info("registered with coordinator",
			slog.String("coordinator", coordinatorURL),
			slog.Duration("ttl", ttl))
		return nil
	}

	for {
		if err := register(); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			attempt++
			w.log.Warn("registration failed; retrying",
				slog.Int("attempt", attempt),
				slog.String("error", err.Error()))
			if serr := sleepCtx(ctx, nil, backoff(250*time.Millisecond, min(attempt, 5))); serr != nil {
				return serr
			}
			continue
		}
		attempt = 0
		period := ttl / 3
		if period <= 0 {
			period = time.Second
		}
		for {
			if err := sleepCtx(ctx, nil, period); err != nil {
				return err
			}
			if err := cl.WorkerHeartbeat(ctx, w.opts.Name); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// Forgotten or unreachable: fall back to registration.
				w.log.Warn("heartbeat failed; re-registering", slog.String("error", err.Error()))
				break
			}
		}
	}
}
