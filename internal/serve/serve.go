// Package serve is the aegisd simulation service: it accepts
// simulation jobs over HTTP, runs them on a bounded worker pool through
// the shard engine (internal/engine), and serves merged results with
// full observability (schema aegis.job/v1).
//
// The daemon adds no simulation semantics of its own.  A job is exactly
// one engine run — same shard cache, same determinism guarantees — so a
// served result is byte-identical to the equivalent CLI run, and two
// daemons pointed at the same cache directory share work.
//
// Stop semantics mirror the engine's two-tier model: Drain (SIGTERM)
// closes the engine drain channel, so running jobs stop at the next
// shard boundary with every completed shard persisted — a restarted
// daemon finishes those jobs from the cache.  Per-job deadlines use
// context cancellation, the hard stop: an expired job aborts mid-shard
// and the aborted shard is discarded.
//
// With Options.JournalPath set the daemon survives even kill -9: every
// lifecycle transition is journaled (schema aegis.journal/v1), so a
// restarted daemon serves completed results byte-identically under
// their original job IDs and re-enqueues interrupted jobs, which resume
// from the shard cache.  Multi-tenancy (Options.Tenant*) adds
// per-tenant quotas and weighted round-robin dispatch keyed by the
// X-Aegis-Tenant header.  See DESIGN.md §15.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aegis/internal/engine"
	"aegis/internal/obs"
)

// Options configures a Server.  The zero value is usable: every field
// has a default chosen for a small shared daemon.
type Options struct {
	// Workers is the number of jobs run concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-started jobs;
	// submissions beyond it are rejected with 429 (default 16).
	QueueDepth int
	// CacheDir, when set, persists shards under it and resumes from
	// them, exactly like aegisbench -cache-dir -resume.
	CacheDir string
	// JournalPath, when set, makes the daemon restart-survivable: every
	// job transition is appended to a crash-safe journal (schema
	// aegis.journal/v1) which New replays, restoring finished jobs with
	// their original results and re-enqueueing interrupted ones.
	JournalPath string
	// JournalMaxBytes bounds the journal file: when an append would grow
	// it past this size the journal is compacted in place — rewritten to
	// the minimal record set that replays to the same state (one
	// submitted record per job plus its latest lifecycle record), with
	// the oldest terminal jobs evicted if the live state alone still
	// exceeds the bound.  0 = unbounded (the pre-bound behaviour).
	JournalMaxBytes int64
	// Shards is the per-job shard count (default 8).  Requests may
	// override it per job.
	Shards int
	// EngineWorkers is the number of shards each job computes
	// concurrently (0 = NumCPU).  Per-trial sim parallelism inside a
	// shard is pinned to 1, so a daemon's total compute parallelism is
	// Workers × EngineWorkers.
	EngineWorkers int
	// JobTimeout is the default per-job deadline (0 = none).  Requests
	// may set a shorter one via timeout_seconds.
	JobTimeout time.Duration
	// TenantQueueSlots bounds each tenant's queued jobs; submissions
	// beyond it get 429 with Retry-After (default: QueueDepth, i.e. a
	// lone tenant may fill the whole queue).
	TenantQueueSlots int
	// TenantMaxInFlight bounds each tenant's queued + running jobs
	// (default: QueueDepth + Workers, i.e. no bound beyond the global
	// ones).
	TenantMaxInFlight int
	// TenantWeights assigns weighted-round-robin dispatch shares by
	// tenant name; unlisted tenants (and values < 1) weigh 1.
	TenantWeights map[string]int
	// Logger receives the daemon's structured log records (nil = log
	// nothing).  Records carry the correlation chain: request ID → job
	// ID and spec hash → shard key.
	Logger *slog.Logger
	// StreamInterval is the period between SSE progress frames on
	// GET /v1/jobs/{id}/events (default 1s).
	StreamInterval time.Duration
	// StreamHeartbeat is the period between SSE keepalive comments
	// (default 15s).
	StreamHeartbeat time.Duration
	// MaxStreams bounds concurrently open SSE streams; subscribers
	// beyond it get 503 with Retry-After (default 64).
	MaxStreams int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.EngineWorkers <= 0 {
		o.EngineWorkers = runtime.NumCPU()
	}
	if o.TenantQueueSlots <= 0 {
		o.TenantQueueSlots = o.QueueDepth
	}
	if o.TenantMaxInFlight <= 0 {
		o.TenantMaxInFlight = o.QueueDepth + o.Workers
	}
	if o.Logger == nil {
		o.Logger = slog.New(noopHandler{})
	}
	if o.StreamInterval <= 0 {
		o.StreamInterval = time.Second
	}
	if o.StreamHeartbeat <= 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 64
	}
	return o
}

// noopHandler drops every record; it stands in for a nil Options.Logger
// so the daemon never nil-checks its logger.
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (noopHandler) WithAttrs([]slog.Attr) slog.Handler        { return noopHandler{} }
func (noopHandler) WithGroup(string) slog.Handler             { return noopHandler{} }

// Server is the aegisd job service.  Create with New, mount Handler on
// an http.Server, call Start to launch the worker pool, and Drain (or
// Close) to stop.
type Server struct {
	opts Options
	mux  *http.ServeMux
	log  *slog.Logger
	// runner builds each job's engine: local simulation unless SetRunner
	// installed another one.
	runner Runner

	// metrics holds the daemon's service-lifetime registry, which every
	// finished job's counters fold into and GET /metrics renders.
	metrics *serverMetrics
	// streams counts open SSE subscriptions against Options.MaxStreams.
	streams atomic.Int64

	// journal records every job transition when Options.JournalPath is
	// set; nil otherwise.
	journal *journal

	// drainCh is shared by every job's engine as Engine.Drain.
	drainCh   chan struct{}
	drainOnce sync.Once

	// slots carries one token per queued job; workers block on it and
	// then pick the actual job via the weighted-round-robin scheduler.
	// Its capacity covers QueueDepth plus every job replayed from the
	// journal, so enqueues never block.
	slots chan struct{}
	wg    sync.WaitGroup

	mu          sync.Mutex
	jobs        map[string]*Job // all jobs ever submitted, by ID
	active      map[string]*Job // queued or running jobs, by tenant+spec
	queue       []*Job          // submission order of queued jobs
	tenants     map[string]*tenant
	tenantOrder []string // round-robin order (first-seen order)
	rrPos       int
	cancels     map[string]context.CancelFunc
	nextSeq     int64
	queued      int
	running     int
	draining    bool
	started     bool
}

// New builds a Server with its routes, replaying the job journal when
// Options.JournalPath is set.  The worker pool does not run until
// Start; jobs submitted (or replayed) before Start queue up (tests use
// this to make queue states deterministic).
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		log:     opts.Logger,
		runner:  localRunner{cacheDir: opts.CacheDir, workers: opts.EngineWorkers},
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*Job),
		active:  make(map[string]*Job),
		tenants: make(map[string]*tenant),
		cancels: make(map[string]context.CancelFunc),
	}
	s.metrics = newServerMetrics(s)

	var rep *journalReplay
	if opts.JournalPath != "" {
		var err error
		rep, err = replayJournalFile(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal, err = openJournal(opts.JournalPath, rep.ValidLen, opts.JournalMaxBytes)
		if err != nil {
			return nil, err
		}
		s.journal.onCompact = func(before, after int64, evicted int, err error) {
			if err != nil {
				s.log.Warn("journal compaction failed",
					slog.String("path", opts.JournalPath),
					slog.String("error", err.Error()))
				return
			}
			s.metrics.m.Counter("aegis_journal_compactions_total",
				"Journal compactions triggered by the -journal-max-bytes bound.").Inc()
			if evicted > 0 {
				s.metrics.m.Counter("aegis_journal_evicted_jobs_total",
					"Terminal jobs evicted from the journal to honour the size bound.").Add(int64(evicted))
			}
			s.log.Info("journal compacted",
				slog.String("path", opts.JournalPath),
				slog.Int64("bytes_before", before),
				slog.Int64("bytes_after", after),
				slog.Int("evicted_jobs", evicted))
		}
	}
	resumable := 0
	if rep != nil {
		for _, rj := range rep.Jobs {
			if !rj.Terminal() {
				resumable++
			}
		}
	}
	s.slots = make(chan struct{}, opts.QueueDepth+resumable)
	if rep != nil {
		s.restoreReplay(rep)
	}

	mux := http.NewServeMux()
	api := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(route, h))
	}
	api("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	api("GET /v1/jobs", "/v1/jobs", s.handleList)
	api("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleStatus)
	api("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", s.handleResult)
	api("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", s.handleEvents)
	api("GET /v1/version", "/v1/version", s.handleVersion)
	api("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	api("GET /debug/aegis/progress", "/debug/aegis/progress", s.handleProgress)
	// The shared debug surface: GET /metrics, /debug/pprof/*,
	// /debug/vars — the same mux aegisbench -http serves.
	obs.RegisterDebug(mux, s.metrics.m, s.instrument)
	s.mux = mux
	return s, nil
}

// restoreReplay rebuilds the job table from a journal replay: terminal
// jobs come back with their original state (and, for done jobs, their
// original result bytes); interrupted jobs are re-enqueued and will
// resume from the shard cache.
func (s *Server) restoreReplay(rep *journalReplay) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq = rep.MaxSeq
	restored, resumed := 0, 0
	for _, rj := range rep.Jobs {
		sub := rj.Submitted
		job := &Job{
			id:       sub.ID,
			seq:      sub.Seq,
			spec:     sub.Spec,
			tenant:   sub.Tenant,
			request:  *sub.Request,
			reqID:    sub.RequestID,
			progress: obs.NewProgress(),
			state:    StateQueued,
			created:  sub.Time,
		}
		if job.tenant == "" {
			job.tenant = DefaultTenant
		}
		job.progress.SetExperiment(job.id)
		job.progress.AddTotal(job.request.Trials)
		if rj.Terminal() {
			job.state = rj.State
			job.finished = rj.FinishedAt
			if rj.Error != "" {
				job.err = errors.New(rj.Error)
			}
			if rj.State == StateDone && len(rj.Result) > 0 {
				var res JobResult
				if err := json.Unmarshal(rj.Result, &res); err == nil {
					job.result = &res
					job.progress.Done(job.request.Trials)
				} else {
					// A done record without a usable result degrades to
					// failed; the spec can be resubmitted and served
					// from the shard cache.
					job.state = StateFailed
					job.err = fmt.Errorf("journal: replayed result unusable: %w", err)
				}
			}
			s.jobs[job.id] = job
			restored++
			continue
		}
		// Interrupted (submitted or running at crash time): re-validate
		// the request — it was normalized before journaling, so failure
		// here means the journal outlived a format change — and requeue.
		f, err := job.request.normalize()
		if err != nil {
			job.state = StateFailed
			job.err = fmt.Errorf("journal: replayed request no longer valid: %w", err)
			s.jobs[job.id] = job
			restored++
			continue
		}
		job.factory = f
		s.jobs[job.id] = job
		s.active[activeKey(job.tenant, job.spec)] = job
		s.enqueueLocked(job)
		resumed++
	}
	if restored+resumed > 0 {
		s.log.Info("journal replayed",
			slog.String("path", s.opts.JournalPath),
			slog.Int("terminal_jobs", restored),
			slog.Int("resumed_jobs", resumed),
			slog.Int("skipped_records", rep.Skipped))
	}
}

// enqueueLocked places a job on its tenant's FIFO and hands the worker
// pool a slot token.  Callers hold s.mu and have verified capacity.
func (s *Server) enqueueLocked(job *Job) {
	tn := s.tenantLocked(job.tenant)
	tn.fifo = append(tn.fifo, job)
	s.queue = append(s.queue, job)
	s.queued++
	s.metrics.tenantQueueDepth(job.tenant, len(tn.fifo))
	s.slots <- struct{}{} // cannot block: capacity covers every admit path
}

// Metrics exposes the daemon's metric registry, the one GET /metrics
// renders; the cluster coordinator registers its families on it.
func (s *Server) Metrics() *obs.Registry { return s.metrics.m }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetRunner replaces the local Runner after construction — the
// cluster coordinator needs the server's metric registry (Metrics) to
// exist before it can be built, so cmd/aegisd creates the server first,
// the coordinator second, and wires it here.  Call before Start; the
// field is read by job workers without locking.
func (s *Server) SetRunner(r Runner) { s.runner = r }

// Mount registers an additional route on the daemon's mux, wrapped in
// the standard request instrumentation (request IDs, per-route counters
// and latency histograms).  The coordinator daemon mounts the cluster
// registration endpoints this way.  Call before the handler serves
// traffic; ServeMux registration is not concurrency-safe.
func (s *Server) Mount(pattern, route string, h http.Handler) {
	s.mux.Handle(pattern, s.instrument(route, h))
}

// Start launches the worker pool.  Idempotent; a no-op after Drain.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.draining {
		return
	}
	s.started = true
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Drain gracefully stops the server: new submissions get 503, queued
// jobs are marked aborted, and running jobs stop at their next shard
// boundary with every completed shard persisted.  Returns once all
// workers have exited or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.drainOnce.Do(func() {
		close(s.drainCh)
		close(s.slots) // safe: submissions check draining under mu
	})
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeJournal()
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Close force-stops the server: drain plus hard-cancelling every
// running job's context.  Aborted shards are discarded; completed ones
// are already persisted.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.drainOnce.Do(func() {
		close(s.drainCh)
		close(s.slots)
	})
	for _, cancel := range s.cancels {
		cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return s.closeJournal()
}

func (s *Server) closeJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.close()
}

// submit validates, deduplicates and enqueues a request.  It returns
// the job (new or, for a duplicate, the existing active one), whether
// the job was newly created, and the HTTP status to answer with.
// reqID is the submitting request's correlation ID; it is recorded on
// the job and appears in every log record the job produces.
func (s *Server) submit(req JobRequest, reqID, tenantName string) (*Job, bool, int, error) {
	f, err := req.normalize()
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	spec := req.specHash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, http.StatusServiceUnavailable,
			&RequestError{Message: "server is draining; resubmit to the restarted daemon (cached shards are kept)"}
	}
	if dup, ok := s.active[activeKey(tenantName, spec)]; ok {
		return dup, false, http.StatusConflict,
			&RequestError{Message: "an identical job is already " + dup.stateLocked() + " as " + dup.id}
	}
	if s.queued >= s.opts.QueueDepth {
		s.metrics.tenantRejected(tenantName, "queue_full")
		return nil, false, http.StatusTooManyRequests,
			&RequestError{Message: fmt.Sprintf("queue full (%d jobs waiting); retry after a job finishes", s.queued)}
	}
	tn := s.tenantLocked(tenantName)
	if len(tn.fifo) >= s.opts.TenantQueueSlots {
		s.metrics.tenantRejected(tenantName, "tenant_queue_full")
		return nil, false, http.StatusTooManyRequests,
			&RequestError{Message: fmt.Sprintf("tenant %q queue full (%d of %d slots); retry after a job finishes",
				tenantName, len(tn.fifo), s.opts.TenantQueueSlots)}
	}
	if len(tn.fifo)+tn.running >= s.opts.TenantMaxInFlight {
		s.metrics.tenantRejected(tenantName, "tenant_inflight")
		return nil, false, http.StatusTooManyRequests,
			&RequestError{Message: fmt.Sprintf("tenant %q has %d jobs in flight (limit %d); retry after one finishes",
				tenantName, len(tn.fifo)+tn.running, s.opts.TenantMaxInFlight)}
	}
	seq := s.nextSeq + 1
	job := &Job{
		id:       fmt.Sprintf("j%06d-%s", seq, spec[:12]),
		seq:      seq,
		spec:     spec,
		tenant:   tenantName,
		request:  req,
		factory:  f,
		reqID:    reqID,
		progress: obs.NewProgress(),
		state:    StateQueued,
		created:  time.Now().UTC(),
	}
	// Journal the admission before publishing the job: an accepted job
	// is a promise the restarted daemon must be able to keep.  The
	// record is flushed (not fsynced — that is reserved for terminal
	// records), so kill -9 after this point cannot lose the submission.
	if s.journal != nil {
		err := s.journal.append(journalRecord{
			Schema:    JournalSchema,
			Type:      recSubmitted,
			Time:      job.created,
			ID:        job.id,
			Seq:       seq,
			Tenant:    tenantName,
			Spec:      spec,
			RequestID: reqID,
			Request:   &job.request,
		}, false)
		if err != nil {
			s.log.Error("journal append failed", slog.String("error", err.Error()))
			return nil, false, http.StatusInternalServerError,
				&RequestError{Message: "job journal unavailable; submission not accepted"}
		}
	}
	s.nextSeq = seq
	job.progress.SetExperiment(job.id)
	job.progress.AddTotal(req.Trials)
	s.jobs[job.id] = job
	s.active[activeKey(tenantName, spec)] = job
	s.enqueueLocked(job)
	s.metrics.tenantSubmitted(tenantName)
	return job, true, http.StatusAccepted, nil
}

// worker consumes queue slots until the slot channel closes
// (Drain/Close), picking the next job by weighted round robin.
func (s *Server) worker() {
	defer s.wg.Done()
	for range s.slots {
		s.mu.Lock()
		job := s.nextJobLocked()
		if job == nil {
			// Token without a queued job: cannot happen (one token per
			// enqueue), but never deadlock on it.
			s.mu.Unlock()
			continue
		}
		s.queued--
		s.dequeueLocked(job)
		tn := s.tenantLocked(job.tenant)
		s.metrics.tenantQueueDepth(job.tenant, len(tn.fifo))
		draining := s.draining
		if !draining {
			s.running++
			tn.running++
			s.metrics.tenantRunning(job.tenant, tn.running)
		}
		s.mu.Unlock()
		if draining {
			job.setState(StateAborted, ErrJobAborted)
			s.journalTerminal(job, nil)
			s.metrics.jobFinished(job.tenant, StateAborted)
			s.jobLogger(job).Info("job aborted before start", slog.String("reason", "daemon draining"))
			s.retire(job)
			continue
		}
		s.journalRunning(job)
		s.runJob(job)
		s.mu.Lock()
		s.running--
		tn.running--
		s.metrics.tenantRunning(job.tenant, tn.running)
		s.mu.Unlock()
		s.retire(job)
	}
}

// ErrJobAborted marks a job stopped by a daemon drain before or during
// execution.  Completed shards are persisted; resubmitting the same
// spec resumes from them.
var ErrJobAborted = errors.New("job aborted by daemon drain; completed shards are cached")

// dequeueLocked removes a job from the queue-order slice.
func (s *Server) dequeueLocked(job *Job) {
	for i, q := range s.queue {
		if q == job {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// retire drops a finished job from the active-spec index so an
// identical spec may be resubmitted (and served from the shard cache).
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := activeKey(job.tenant, job.spec)
	if s.active[key] == job {
		delete(s.active, key)
	}
}

// journalRunning records a job's dispatch.  Journal errors here must
// not kill the job — the submission record already guarantees replay —
// so they are logged and dropped.
func (s *Server) journalRunning(job *Job) {
	if s.journal == nil {
		return
	}
	err := s.journal.append(journalRecord{
		Type: recRunning,
		Time: time.Now().UTC(),
		ID:   job.id,
	}, false)
	if err != nil {
		s.jobLogger(job).Error("journal append failed", slog.String("error", err.Error()))
	}
}

// journalTerminal records a job's outcome, with the marshaled result
// for done jobs, and fsyncs: once a client can observe a terminal
// state, no crash may un-happen it.
func (s *Server) journalTerminal(job *Job, result *JobResult) {
	if s.journal == nil {
		return
	}
	state, jerr, _, _, _, _ := job.snapshot()
	rec := journalRecord{
		Type:  recTerminal,
		Time:  time.Now().UTC(),
		ID:    job.id,
		State: state,
	}
	if jerr != nil {
		rec.Error = jerr.Error()
	}
	if result != nil {
		data, err := json.Marshal(result)
		if err == nil {
			rec.Result = data
		} else {
			s.jobLogger(job).Error("journal result marshal failed", slog.String("error", err.Error()))
		}
	}
	if err := s.journal.append(rec, true); err != nil {
		s.jobLogger(job).Error("journal append failed", slog.String("error", err.Error()))
	}
}

// runJob executes one job through the shard engine.
func (s *Server) runJob(job *Job) {
	req := job.request
	timeout := s.opts.JobTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	s.mu.Lock()
	s.cancels[job.id] = cancel
	s.mu.Unlock()
	defer func() {
		cancel()
		s.mu.Lock()
		delete(s.cancels, job.id)
		s.mu.Unlock()
	}()

	shards := req.Shards
	if shards == 0 {
		shards = s.opts.Shards
	}
	logger := s.jobLogger(job)
	eng := s.runner.Engine(RunnerJob{
		JobID:   job.id,
		Request: req,
		Shards:  shards,
		Drain:   s.drainCh,
		Logger:  logger,
	})
	reg := obs.NewRegistry()
	cfg := req.config()
	cfg.Workers = 1 // parallelism lives at the shard level in the daemon
	cfg.Ctx = ctx
	cfg.Obs = reg
	cfg.Progress = job.progress

	job.setState(StateRunning, nil)
	logger.Info("job started",
		slog.String("kind", req.Kind),
		slog.String("tenant", job.tenant),
		slog.String("scheme", job.factory.Name()),
		slog.Int("trials", req.Trials),
		slog.Int("shards", shards))
	start := time.Now()
	result := &JobResult{
		Schema:  JobSchema,
		ID:      job.id,
		Request: req,
		Scheme:  job.factory.Name(),
		Kind:    req.Kind,
	}
	var err error
	switch req.Kind {
	case KindBlocks:
		result.Blocks, err = eng.Blocks(job.factory, cfg)
	case KindPages:
		result.Pages, err = eng.Pages(job.factory, cfg)
	case KindCurve:
		result.Curve, err = eng.FailureCurveBias(job.factory, cfg, req.MaxFaults, req.WritesPerStep, *req.Bias)
	default:
		err = fmt.Errorf("serve: unreachable kind %q", req.Kind) // normalize rejects it
	}
	// Fold the job's private registry into the service-lifetime one so
	// /metrics shows cumulative per-scheme and shard-cache totals across
	// every job, whatever this job's outcome (cache traffic accrues even
	// on aborted runs; scheme counters exist only on success).
	defer func() {
		for name, tot := range reg.Snapshot() {
			s.metrics.m.AddTotals(name, tot)
		}
		for name, h := range reg.HistSnapshot() {
			s.metrics.m.AddHist(name, h)
		}
		s.metrics.m.AddShardTotals(reg.Shards().Totals())
	}()
	if err != nil {
		state := StateFailed
		if errors.Is(err, engine.ErrDraining) {
			state = StateAborted
		}
		job.setState(state, err)
		s.journalTerminal(job, nil)
		s.metrics.jobFinished(job.tenant, state)
		logger.Warn("job "+state,
			slog.String("error", err.Error()),
			slog.Duration("elapsed", time.Since(start)))
		return
	}
	result.ElapsedSeconds = time.Since(start).Seconds()
	result.Counters = reg.Snapshot()
	result.Histograms = reg.HistSnapshot()
	st := reg.Shards().Totals()
	result.Sharding = obs.ShardingInfo{
		ShardSchema: engine.ShardSchema,
		Shards:      shards,
		Workers:     s.opts.EngineWorkers,
		Lanes:       req.Lanes,
		CacheDir:    s.opts.CacheDir,
		Resume:      s.opts.CacheDir != "",
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,
		Persisted:   st.Persisted,
	}
	job.mu.Lock()
	job.result = result
	job.mu.Unlock()
	job.setState(StateDone, nil)
	s.journalTerminal(job, result)
	s.metrics.jobFinished(job.tenant, StateDone)
	logger.Info("job done",
		slog.Duration("elapsed", time.Since(start)),
		slog.Int64("cache_hits", st.CacheHits),
		slog.Int64("cache_misses", st.CacheMisses))
}

// jobLogger returns the daemon logger scoped to one job: every record
// carries the job ID, its spec hash (abbreviated, enough to find the
// shard cache entries), its tenant and the submitting request's ID.
func (s *Server) jobLogger(job *Job) *slog.Logger {
	return s.log.With(
		slog.String("job", job.id),
		slog.String("spec", job.spec[:12]),
		slog.String("tenant", job.tenant),
		slog.String("request_id", job.reqID))
}

// stateLocked reads the job state; callers must not hold j.mu.
func (j *Job) stateLocked() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// queuePosition returns how many jobs precede job in the queue, or -1
// once it has left the queue.
func (s *Server) queuePosition(job *Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == job {
			return i
		}
	}
	return -1
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// status assembles the job's public status view.
func (s *Server) status(job *Job) JobStatus {
	state, err, result, created, started, finished := job.snapshot()
	st := JobStatus{
		ID:            job.id,
		Tenant:        job.tenant,
		State:         state,
		QueuePosition: s.queuePosition(job),
		Progress:      job.progress.Snapshot(),
		CreatedAt:     created,
		Request:       job.request,
	}
	if err != nil {
		st.Error = err.Error()
	}
	if !started.IsZero() {
		t := started
		st.StartedAt = &t
	}
	if !finished.IsZero() {
		t := finished
		st.FinishedAt = &t
	}
	if result != nil {
		st.ResultURL = "/v1/jobs/" + job.id + "/result"
	}
	return st
}

// ---- HTTP handlers -------------------------------------------------

const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// setRetryAfter advises backpressured clients when to come back: a 429
// clears when a job finishes (seconds), a 503 when the daemon restarts.
func setRetryAfter(w http.ResponseWriter, status int) {
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", "5")
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "10")
	}
}

// writeError answers with a JSON RequestError body stamped with the
// request's correlation ID, plus Retry-After on backpressure statuses.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, re *RequestError) {
	re.RequestID = requestID(r)
	setRetryAfter(w, status)
	writeJSON(w, status, re)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := requestID(r)
	tenantName, terr := tenantFromRequest(r)
	if terr != nil {
		s.writeError(w, r, http.StatusBadRequest, terr)
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, &RequestError{Message: "invalid JSON body: " + err.Error()})
		return
	}
	job, created, status, err := s.submit(req, rid, tenantName)
	if err != nil {
		resp := struct {
			*RequestError
			ID string `json:"id,omitempty"`
		}{}
		var re *RequestError
		if errors.As(err, &re) {
			resp.RequestError = re
		} else {
			resp.RequestError = &RequestError{Message: err.Error()}
		}
		resp.RequestError.RequestID = rid
		if job != nil { // duplicate submission: point at the live job
			resp.ID = job.id
		}
		setRetryAfter(w, status)
		writeJSON(w, status, resp)
		return
	}
	_ = created
	s.log.Info("job accepted",
		slog.String("request_id", rid),
		slog.String("job", job.id),
		slog.String("spec", job.spec[:12]),
		slog.String("tenant", tenantName),
		slog.String("kind", req.Kind),
		slog.String("scheme", req.Scheme))
	w.Header().Set("Location", "/v1/jobs/"+job.id)
	writeJSON(w, status, s.status(job))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, &RequestError{Message: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, s.status(job))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, http.StatusNotFound, &RequestError{Message: "unknown job " + r.PathValue("id")})
		return
	}
	state, err, result, _, _, _ := job.snapshot()
	if result == nil {
		re := &RequestError{Message: "job " + job.id + " is " + state + "; no result available"}
		if err != nil {
			re.Message += ": " + err.Error()
		}
		s.writeError(w, r, http.StatusConflict, re)
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Submission order, not map order.
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k-1].seq > jobs[k].seq; k-- {
			jobs[k-1], jobs[k] = jobs[k], jobs[k-1]
		}
	}
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := map[string]any{
		"status":   "ok",
		"draining": s.draining,
		"queued":   s.queued,
		"running":  s.running,
		"jobs":     len(s.jobs),
		"tenants":  len(s.tenants),
		"workers":  s.opts.Workers,
		"journal":  s.journal != nil,
	}
	if s.draining {
		resp["status"] = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleProgress serves the live progress of every non-finished job,
// mirroring aegisbench's -progress-addr endpoint shape.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make(map[string]obs.ProgressSnapshot)
	for _, j := range jobs {
		switch j.stateLocked() {
		case StateQueued, StateRunning:
			out[j.id] = j.progress.Snapshot()
		}
	}
	writeJSON(w, http.StatusOK, out)
}
