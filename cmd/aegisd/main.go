// Command aegisd is the simulation daemon: an HTTP service that runs
// Aegis Monte Carlo jobs on a bounded worker pool through the shard
// engine, so repeated and concurrent requests share work via the
// content-addressed shard cache.
//
// Usage:
//
//	aegisd -addr :8080 -cache-dir /var/cache/aegis -journal /var/cache/aegis/journal
//	aegisd -addr 127.0.0.1:0 -addr-file /tmp/aegisd.addr   # pick a free port
//	aegisd -version                                        # build + schema report
//
// With -journal the daemon is restart-survivable (even across kill -9):
// completed jobs come back with their original byte-identical results
// and interrupted jobs are re-enqueued, resuming from the shard cache.
// Multi-tenant quotas and fair scheduling key off the X-Aegis-Tenant
// request header (-tenant-queue, -tenant-inflight, -tenant-weights).
//
// API (see DESIGN.md §11 and §14, and README "Operating aegisd"):
//
//	POST /v1/jobs             submit a job       → 202 + status
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status, queue position, live progress
//	GET  /v1/jobs/{id}/result merged results     (schema aegis.job/v1)
//	GET  /v1/jobs/{id}/events live progress stream (Server-Sent Events)
//	GET  /v1/version          build identity + wire-format schemas
//	GET  /v1/healthz          liveness + queue/worker gauges
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/aegis/progress, /debug/pprof/*, /debug/vars
//
// Logs are structured (log/slog, -log text|json) and correlated:
// every record a job produces carries the submitting request's ID, the
// job ID and its spec hash, and engine shard records add the shard key.
//
// On SIGINT/SIGTERM the daemon drains: no new jobs are accepted,
// running jobs stop at their next shard boundary, and every completed
// shard is already persisted — restarting aegisd with the same
// -cache-dir finishes interrupted jobs from the cache.
//
// Cluster mode (-role, see DESIGN.md §16 and README "Running a
// cluster"): "-role coordinator" serves the same job API but leases
// each job's shards out to registered workers instead of computing
// locally; "-role worker -coordinator http://host:port" computes leased
// shards and keeps its registration alive with heartbeats.  The default
// role, standalone, is the single-process daemon described above.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aegis/internal/cluster"
	"aegis/internal/obs"
	"aegis/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "aegisd:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon logger: text or JSON records at the
// requested level, written to w.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("-log %q: want text or json", format)
}

// parseTenantWeights parses the -tenant-weights flag: comma-separated
// name=weight pairs, e.g. "batch=1,interactive=4".
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights: want name=weight, got %q", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenant-weights: weight for %q must be a positive integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("aegisd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts wrapping port 0)")
		workers   = fs.Int("workers", 2, "jobs run concurrently")
		queue     = fs.Int("queue", 16, "max queued jobs before submissions get 429")
		cacheDir  = fs.String("cache-dir", "", "shard cache directory (persist + resume; empty = in-memory only)")
		journal   = fs.String("journal", "", "job journal file (schema aegis.journal/v1; empty = jobs die with the process)")
		journalMB = fs.Int64("journal-max-bytes", 0, "journal size bound; exceeding appends trigger compaction (0 = unbounded)")
		shards    = fs.Int("shards", 8, "default shards per job")
		engineW   = fs.Int("engine-workers", 0, "shards computed concurrently per job (0 = NumCPU)")
		jobTO     = fs.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
		tenantQ   = fs.Int("tenant-queue", 0, "max queued jobs per tenant before 429 (0 = the full queue)")
		tenantIF  = fs.Int("tenant-inflight", 0, "max queued+running jobs per tenant before 429 (0 = unbounded)")
		tenantW   = fs.String("tenant-weights", "", "weighted round-robin shares, comma-separated name=weight pairs")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight shards on shutdown")
		logFormat = fs.String("log", "text", "log record format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		version   = fs.Bool("version", false, "print build identity and schema versions as JSON, then exit")

		role       = fs.String("role", "standalone", "daemon role: standalone, coordinator or worker")
		coordURL   = fs.String("coordinator", "", "coordinator base URL (worker role; e.g. http://127.0.0.1:8080)")
		workerName = fs.String("worker-name", "", "worker fleet identity (worker role; default worker-<bound-addr>)")
		advertise  = fs.String("advertise", "", "URL the coordinator reaches this worker at (worker role; default http://<bound-addr>)")
		hbTTL      = fs.Duration("heartbeat-ttl", 10*time.Second, "worker registration TTL (coordinator role)")
		leaseTO    = fs.Duration("lease-timeout", 2*time.Minute, "per-lease compute deadline before re-issue (coordinator role)")
		leaseTries = fs.Int("lease-attempts", 4, "workers a shard lease is offered to before the job fails (coordinator role)")
		workerWait = fs.Duration("worker-wait", 30*time.Second, "how long a lease waits for a live worker before failing (coordinator role)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(serve.Version())
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	if *role == "worker" {
		return runWorker(workerConfig{
			addr:        *addr,
			addrFile:    *addrFile,
			cacheDir:    *cacheDir,
			coordinator: *coordURL,
			name:        *workerName,
			advertise:   *advertise,
			drainTO:     *drainTO,
		}, logger)
	}
	if *role != "standalone" && *role != "coordinator" {
		return fmt.Errorf("-role %q: want standalone, coordinator or worker", *role)
	}

	weights, err := parseTenantWeights(*tenantW)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheDir:          *cacheDir,
		JournalPath:       *journal,
		JournalMaxBytes:   *journalMB,
		Shards:            *shards,
		EngineWorkers:     *engineW,
		JobTimeout:        *jobTO,
		TenantQueueSlots:  *tenantQ,
		TenantMaxInFlight: *tenantIF,
		TenantWeights:     weights,
		Logger:            logger,
	})
	if err != nil {
		return err
	}
	if *role == "coordinator" {
		coord := cluster.NewCoordinator(cluster.Options{
			CacheDir:     *cacheDir,
			FanOut:       *engineW,
			HeartbeatTTL: *hbTTL,
			LeaseTimeout: *leaseTO,
			MaxAttempts:  *leaseTries,
			WorkerWait:   *workerWait,
			Metrics:      srv.Metrics(),
			Logger:       logger,
		})
		coord.Mount(srv)
		srv.SetRunner(coord)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	srv.Start()
	v := serve.Version()
	logger.Info("listening",
		slog.String("addr", bound),
		slog.String("role", *role),
		slog.Int("workers", *workers),
		slog.Int("queue", *queue),
		slog.Int("shards", *shards),
		slog.String("cache_dir", *cacheDir),
		slog.String("journal", *journal),
		slog.String("git_sha", v.GitSHA),
		slog.String("go_version", v.GoVersion))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		logger.Info("draining", slog.String("signal", got.String()))
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if drainErr != nil {
		// Shard-boundary drain overran the budget: hard-cancel.
		logger.Warn("drain overran; cancelling running jobs", slog.String("error", drainErr.Error()))
		srv.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	logger.Info("stopped")
	return nil
}

// workerConfig carries the worker role's flag subset.
type workerConfig struct {
	addr, addrFile, cacheDir string
	coordinator              string
	name, advertise          string
	drainTO                  time.Duration
}

// runWorker runs the worker role: serve the lease compute endpoint
// (plus /metrics and the debug surface), register with the coordinator,
// and heartbeat until signalled.
func runWorker(cfg workerConfig, logger *slog.Logger) error {
	if cfg.coordinator == "" {
		return fmt.Errorf("-role worker requires -coordinator")
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	if cfg.name == "" {
		cfg.name = "worker-" + bound
	}
	if cfg.advertise == "" {
		cfg.advertise = "http://" + bound
	}

	metrics := obs.NewRegistry()
	w := cluster.NewWorker(cluster.WorkerOptions{
		Name:     cfg.name,
		CacheDir: cfg.cacheDir,
		Metrics:  metrics,
		Logger:   logger.With(slog.String("worker", cfg.name)),
	})
	mux := http.NewServeMux()
	mux.Handle("/", w.Handler())
	obs.RegisterDebug(mux, metrics, nil)
	httpSrv := &http.Server{Handler: mux}

	v := serve.Version()
	logger.Info("worker listening",
		slog.String("addr", bound),
		slog.String("name", cfg.name),
		slog.String("coordinator", cfg.coordinator),
		slog.String("advertise", cfg.advertise),
		slog.String("cache_dir", cfg.cacheDir),
		slog.String("git_sha", v.GitSHA))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.Serve(ln) }()
	go func() { errCh <- w.Run(ctx, cfg.coordinator, cfg.advertise) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		logger.Info("worker stopping", slog.String("signal", got.String()))
	}
	cancel()
	sctx, scancel := context.WithTimeout(context.Background(), cfg.drainTO)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		httpSrv.Close()
	}
	logger.Info("stopped")
	return nil
}
