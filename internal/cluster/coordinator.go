package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"aegis/internal/engine"
	"aegis/internal/obs"
	"aegis/internal/serve"
	"aegis/pkg/client"
)

// Options configures a Coordinator.  The zero value is usable.
type Options struct {
	// CacheDir, when set, is the coordinator's shard cache: completed
	// leases are persisted there and later jobs (or re-issued leases)
	// are served from it.  Point it at the same directory a standalone
	// daemon would use and the two share work.
	CacheDir string
	// FanOut is the number of leases in flight per job (0 = 4): the
	// Workers of each job's engine.  cmd/aegisd maps -engine-workers
	// here, so the result's sharding block matches the standalone
	// run's.
	FanOut int
	// HeartbeatTTL is how long a worker registration lives without a
	// heartbeat (default 10s).
	HeartbeatTTL time.Duration
	// LeaseTimeout bounds one compute round-trip; a lease not answered
	// in time counts as expired and is re-issued (default 2m).
	LeaseTimeout time.Duration
	// MaxAttempts bounds how many workers one shard's lease is offered
	// to before the job fails (default 4).
	MaxAttempts int
	// RetryBase is the first backoff step between re-issues of the same
	// lease; later steps double, with jitter (default 100ms).
	RetryBase time.Duration
	// WorkerWait bounds how long a lease waits for any live worker to
	// exist before the job fails (default 30s).  Covers fleet startup
	// races: the coordinator may accept a job before the first worker
	// registers.
	WorkerWait time.Duration
	// Metrics receives the aegis_cluster_* instrument families (nil =
	// unregistered, the coordinator still works).
	Metrics *obs.Metrics
	// Logger receives coordinator records (nil = log nothing).
	Logger *slog.Logger
	// HTTPClient overrides the transport used to reach workers (tests
	// inject httptest transports).
	HTTPClient *http.Client
}

func (o Options) withDefaults() Options {
	if o.FanOut <= 0 {
		o.FanOut = 4
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 10 * time.Second
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.WorkerWait <= 0 {
		o.WorkerWait = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	return o
}

// discardHandler drops every record (mirrors serve's noop logger).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// metrics is the coordinator's aegis_cluster_* instrument set.
type metrics struct {
	workersLost   *obs.Counter
	leasesIssued  *obs.Counter
	leasesStolen  *obs.Counter
	leasesExpired *obs.Counter
	roundtrip     *obs.Histogram
}

func newMetrics(m *obs.Metrics, reg *registry) *metrics {
	if m == nil {
		return nil
	}
	m.GaugeFunc("aegis_cluster_workers_live",
		"Registered workers with an unexpired heartbeat.",
		func() float64 { return float64(reg.live()) })
	return &metrics{
		workersLost: m.Counter("aegis_cluster_workers_lost_total",
			"Workers dropped from the fleet (missed heartbeat or dispatch failure)."),
		leasesIssued: m.Counter("aegis_cluster_leases_issued_total",
			"Shard leases dispatched to workers, including re-issues."),
		leasesStolen: m.Counter("aegis_cluster_leases_stolen_total",
			"Leases re-issued after their worker failed, timed out or disappeared."),
		leasesExpired: m.Counter("aegis_cluster_leases_expired_total",
			"Leases that outlived their deadline before the worker answered."),
		roundtrip: m.Histogram("aegis_cluster_shard_roundtrip_seconds",
			"Lease round-trip latency: dispatch to validated shard.", 1e-6),
	}
}

// Coordinator fans each job's shards out over the registered worker
// fleet.  It implements serve.Runner, so a serve.Server with the
// coordinator installed accepts jobs through the ordinary API and
// answers with results byte-identical to a standalone run.  Safe for
// concurrent use; one coordinator serves every job of its daemon.
type Coordinator struct {
	opts Options
	reg  *registry
	met  *metrics
	log  *slog.Logger

	// clients caches one pkg/client per worker base URL.
	cmu     sync.Mutex
	clients map[string]*client.Client
}

// NewCoordinator builds a coordinator and registers its metric
// families.
func NewCoordinator(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:    opts,
		log:     opts.Logger,
		clients: make(map[string]*client.Client),
	}
	c.reg = newRegistry(opts.HeartbeatTTL, func(name, reason string) {
		if c.met != nil {
			c.met.workersLost.Inc()
		}
		c.log.Info("worker lost", slog.String("worker", name), slog.String("reason", reason))
	})
	c.met = newMetrics(opts.Metrics, c.reg)
	return c
}

// Mount registers the coordinator's fleet endpoints on the daemon's
// mux via serve.Server.Mount: worker registration, heartbeat, and the
// operator's fleet listing.
func (c *Coordinator) Mount(s *serve.Server) {
	s.Mount("POST "+WorkersPath, WorkersPath, http.HandlerFunc(c.handleRegister))
	s.Mount("GET "+WorkersPath, WorkersPath, http.HandlerFunc(c.handleListWorkers))
	s.Mount("POST "+WorkersPath+"/{name}"+HeartbeatPathSuffix,
		WorkersPath+"/{name}"+HeartbeatPathSuffix, http.HandlerFunc(c.handleHeartbeat))
}

// Workers reports the live fleet size (tests and readiness checks).
func (c *Coordinator) Workers() int { return c.reg.live() }

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Name == "" || req.BaseURL == "" {
		httpError(w, http.StatusBadRequest, "name and base_url are required")
		return
	}
	ttl := c.reg.upsert(req.Name, req.BaseURL, req.CodeVersion)
	c.log.Info("worker registered",
		slog.String("worker", req.Name),
		slog.String("base_url", req.BaseURL),
		slog.String("code_version", req.CodeVersion))
	writeJSON(w, http.StatusOK, RegisterResponse{Name: req.Name, TTLSeconds: ttl.Seconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !c.reg.heartbeat(name) {
		// Gone: the worker must re-register (404 tells it so).
		httpError(w, http.StatusNotFound, "unknown worker "+name+"; re-register")
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{Name: name, TTLSeconds: c.opts.HeartbeatTTL.Seconds()})
}

func (c *Coordinator) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": c.reg.snapshot()})
}

// Engine implements serve.Runner: the job runs through the same shard
// engine as a standalone daemon's — same split, cache, progress
// accounting, persistence and merge — with an executor that leases
// every shard the coordinator's cache cannot serve to the fleet.  That
// shared pipeline is what keeps a cluster job's result document
// byte-identical to the standalone one.
func (c *Coordinator) Engine(job serve.RunnerJob) *engine.Engine {
	logger := c.log
	if job.Logger != nil {
		logger = job.Logger
	}
	return &engine.Engine{
		Shards:   job.Shards,
		CacheDir: c.opts.CacheDir,
		Resume:   c.opts.CacheDir != "",
		Workers:  c.opts.FanOut,
		Drain:    job.Drain,
		Logger:   job.Logger,
		Executor: func(ctx context.Context, t engine.ShardTask) (*engine.Shard, error) {
			return c.dispatch(ctx, job.Drain, &Lease{
				Schema:     LeaseSchema,
				JobID:      job.JobID,
				Spec:       job.Request,
				SchemeName: t.Scheme,
				Kind:       t.Kind,
				Curve:      t.Curve,
				ConfigHash: t.ConfigHash,
				ShardKey:   t.Key,
				TrialLo:    t.Lo,
				TrialHi:    t.Hi,
			}, logger.With(
				slog.String("shard_key", shortKey(t.Key)),
				slog.Int("trial_lo", t.Lo),
				slog.Int("trial_hi", t.Hi)))
		},
	}
}

// dispatch offers a lease to workers until one returns a shard that
// validates at the lease's address: round-robin placement, per-attempt deadline, failed workers dropped
// from the fleet and excluded from this lease's re-issues, jittered
// exponential backoff between attempts, and a bounded attempt count.
func (c *Coordinator) dispatch(ctx context.Context, drain <-chan struct{}, lease *Lease, logger *slog.Logger) (*engine.Shard, error) {
	exclude := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := drainOrCtxErr(ctx, drain); err != nil {
			return nil, err
		}
		name, baseURL, ok := c.pickWorker(ctx, drain, exclude)
		if !ok {
			if err := drainOrCtxErr(ctx, drain); err != nil {
				return nil, err
			}
			if lastErr != nil {
				return nil, fmt.Errorf("cluster: no live worker for shard %.12s… after %d attempts: %w",
					lease.ShardKey, attempt, lastErr)
			}
			return nil, fmt.Errorf("cluster: no workers registered within %s", c.opts.WorkerWait)
		}
		lease.Attempt = attempt
		lease.LeaseID = fmt.Sprintf("%s-a%d", shortKey(lease.ShardKey), attempt)
		if c.met != nil {
			c.met.leasesIssued.Inc()
			if attempt > 0 {
				// A re-issue after a failed worker is a steal: the shard's
				// work moves to another member of the fleet.
				c.met.leasesStolen.Inc()
			}
		}
		logger.Info("lease issued",
			slog.String("worker", name),
			slog.String("lease", lease.LeaseID),
			slog.Int("attempt", attempt))

		s, err := c.computeOn(ctx, baseURL, lease, name)
		if err == nil {
			c.reg.leaseDone(name)
			return s, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		expired := errors.Is(err, context.DeadlineExceeded)
		if expired && c.met != nil {
			c.met.leasesExpired.Inc()
		}
		// The worker failed the lease (transport error, timeout, bad
		// shard): drop it from the fleet and never offer it this lease
		// again.  If it is actually healthy it will re-register on its
		// next heartbeat.
		c.reg.drop(name, "lease "+lease.LeaseID+" failed: "+err.Error())
		exclude[name] = true
		logger.Warn("lease failed",
			slog.String("worker", name),
			slog.String("lease", lease.LeaseID),
			slog.Bool("expired", expired),
			slog.String("error", err.Error()))
		if err := sleepCtx(ctx, drain, backoff(c.opts.RetryBase, attempt)); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: shard %.12s… failed on %d workers: %w",
		lease.ShardKey, c.opts.MaxAttempts, lastErr)
}

// pickWorker returns a live worker, waiting up to WorkerWait for one to
// register when the eligible fleet is empty.
func (c *Coordinator) pickWorker(ctx context.Context, drain <-chan struct{}, exclude map[string]bool) (name, baseURL string, ok bool) {
	deadline := time.Now().Add(c.opts.WorkerWait)
	for {
		if name, baseURL, ok = c.reg.pick(exclude); ok {
			return name, baseURL, true
		}
		// A worker that failed this lease may be the only one left in
		// the fleet (it re-registered, or its heartbeat is still live);
		// after the exclusion empties the candidate set, forgive it
		// rather than fail a job a healthy fleet could finish.
		if len(exclude) > 0 {
			if name, baseURL, ok = c.reg.pick(nil); ok {
				for k := range exclude {
					delete(exclude, k)
				}
				return name, baseURL, true
			}
		}
		if time.Now().After(deadline) {
			return "", "", false
		}
		if err := sleepCtx(ctx, drain, 50*time.Millisecond); err != nil {
			return "", "", false
		}
	}
}

// computeOn runs one lease round-trip against a worker and validates
// the returned shard at the coordinator's expected address.
func (c *Coordinator) computeOn(ctx context.Context, baseURL string, lease *Lease, worker string) (*engine.Shard, error) {
	cl, err := c.clientFor(baseURL)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(lease)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode lease: %w", err)
	}
	cctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	start := time.Now()
	raw, err := cl.ComputeShard(cctx, body)
	if err != nil {
		return nil, err
	}
	s, err := decodeLeaseResult(raw, lease, worker)
	if err != nil {
		return nil, err
	}
	if c.met != nil {
		c.met.roundtrip.Observe(time.Since(start).Microseconds())
	}
	return s, nil
}

// decodeLeaseResult parses a worker's completion payload and validates
// the shard at the lease's expected address.  Everything a worker could
// send — corrupt, truncated, mislabeled, replayed from another lease —
// must come back as an error, never a panic and never a shard that
// would merge at the wrong address; FuzzLeaseWire pins this.
func decodeLeaseResult(raw []byte, lease *Lease, worker string) (*engine.Shard, error) {
	var res LeaseResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("cluster: worker %s: undecodable lease result: %w", worker, err)
	}
	if res.Schema != LeaseSchema {
		return nil, fmt.Errorf("cluster: worker %s answered schema %q, want %q", worker, res.Schema, LeaseSchema)
	}
	if res.Shard == nil {
		return nil, fmt.Errorf("cluster: worker %s returned no shard", worker)
	}
	if res.ShardKey != lease.ShardKey {
		return nil, fmt.Errorf("cluster: worker %s answered for shard %.12s…, lease asked for %.12s…",
			worker, res.ShardKey, lease.ShardKey)
	}
	if err := engine.ValidateShard(res.Shard, "worker "+worker, lease.ShardKey, lease.ConfigHash,
		lease.SchemeName, lease.Kind, lease.TrialLo, lease.TrialHi); err != nil {
		return nil, err
	}
	return res.Shard, nil
}

// clientFor returns (caching) the retry-free client for one worker.
// Retries are disabled because the coordinator owns failure handling:
// a failed call must surface immediately so the lease can move to
// another worker instead of hammering a dead one.
func (c *Coordinator) clientFor(baseURL string) (*client.Client, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if cl, ok := c.clients[baseURL]; ok {
		return cl, nil
	}
	cl, err := client.New(baseURL, client.Options{RetryMax: -1, HTTPClient: c.opts.HTTPClient})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker URL: %w", err)
	}
	c.clients[baseURL] = cl
	return cl, nil
}

// ---- small shared helpers ------------------------------------------

func drainOrCtxErr(ctx context.Context, drain <-chan struct{}) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	select {
	case <-drain:
		return engine.ErrDraining
	default:
		return nil
	}
}

// sleepCtx sleeps d unless the context or drain ends first.
func sleepCtx(ctx context.Context, drain <-chan struct{}, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-drain:
		return engine.ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff computes the re-issue delay for an attempt: base·2^attempt
// with 0.5–1.5× clock-derived jitter (the same decorrelation device as
// pkg/client), capped at 5s — a lease re-issue should never wait out a
// heartbeat TTL.
func backoff(base time.Duration, attempt int) time.Duration {
	d := float64(base) * math.Pow(2, float64(attempt))
	frac := float64(time.Now().UnixNano()%1000) / 1000
	d *= 0.5 + frac
	if max := float64(5 * time.Second); d > max {
		d = max
	}
	return time.Duration(d)
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
