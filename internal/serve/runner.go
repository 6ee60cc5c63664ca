package serve

import (
	"log/slog"

	"aegis/internal/engine"
)

// Runner chooses where a job's shards are computed by building the
// *engine.Engine the job runs through.  Every job, standalone or
// clustered, is one engine run: the engine splits the trial range,
// consults the cache, credits progress, persists and merges, and runJob
// builds the aegis.job/v1 result from what it returns.  The standalone
// daemon's Runner simulates shards locally; a coordinator daemon
// installs internal/cluster's Coordinator, whose engines carry an
// engine.Executor that leases each missed shard to a worker.  Cluster
// results are byte-identical to standalone ones by construction, since
// both go through the same engine code.
type Runner interface {
	Engine(job RunnerJob) *engine.Engine
}

// RunnerJob is what a Runner needs to build one job's engine.
type RunnerJob struct {
	// JobID is the job's public ID (j%06d-<spec12>); leases carry it
	// for correlation.
	JobID string
	// Request is the normalized job request — the form that crosses the
	// cluster wire, since a worker can reconstruct the factory and
	// configuration from it (JobRequest.Normalize, SimConfig).
	Request JobRequest
	// Shards is the number of content-addressed slices to split the
	// trial range into.
	Shards int
	// Drain soft-stops the run when closed: finish what is in flight,
	// issue nothing new, return engine.ErrDraining.
	Drain <-chan struct{}
	// Logger carries the job's correlation chain (request ID, job ID,
	// spec hash); shard-level records add the shard key.
	Logger *slog.Logger
}

// localRunner is the standalone daemon's Runner: every shard is
// simulated in this process, cached under CacheDir when one is set.
type localRunner struct {
	cacheDir string
	workers  int
}

func (r localRunner) Engine(job RunnerJob) *engine.Engine {
	return &engine.Engine{
		Shards:   job.Shards,
		CacheDir: r.cacheDir,
		Resume:   r.cacheDir != "",
		Workers:  r.workers,
		Drain:    job.Drain,
		Logger:   job.Logger,
	}
}
