package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"aegis/internal/experiments"
	"aegis/internal/obs"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// JobSchema identifies the job-result format GET /v1/jobs/{id}/result
// serves.  Bump the suffix on any backwards-incompatible change, the
// same discipline as aegis.run-manifest and aegis.shard.
const JobSchema = "aegis.job/v1"

// Job kinds: which simulation a job runs, matching the shard kinds of
// internal/engine.
const (
	KindBlocks = "blocks"
	KindPages  = "pages"
	KindCurve  = "curve"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateAborted marks jobs stopped by a daemon drain (SIGTERM).
	// Their completed shards are persisted, so resubmitting the same
	// spec to a restarted daemon resumes from the cache.
	StateAborted = "aborted"
)

// JobRequest is the POST /v1/jobs payload.  Zero-valued fields take the
// preset's defaults, so {"kind":"blocks","scheme":"aegis:61"} is a
// complete request.
type JobRequest struct {
	// Kind selects the simulation: blocks, pages or curve.
	Kind string `json:"kind"`
	// Scheme selects the fault-recovery scheme (see
	// experiments.SchemeGrammar).
	Scheme string `json:"scheme"`
	// Preset scales the Monte Carlo effort: quick, default or full
	// (default quick — a service should answer promptly unless asked
	// otherwise).
	Preset string `json:"preset,omitempty"`
	// Trials overrides the preset's trial count (0 = preset value for
	// the kind).
	Trials int `json:"trials,omitempty"`
	// BlockBits is the data block size (0 = 512, the paper's main
	// configuration).
	BlockBits int `json:"block_bits,omitempty"`
	// PageBytes is the page size for pages jobs (0 = 4096).
	PageBytes int `json:"page_bytes,omitempty"`
	// Seed overrides the preset seed (0 = keep preset seed).
	Seed int64 `json:"seed,omitempty"`
	// MaxFaults and WritesPerStep parameterize curve jobs
	// (0 = 30 and 8, the Figure 8 probe).
	MaxFaults     int `json:"max_faults,omitempty"`
	WritesPerStep int `json:"writes_per_step,omitempty"`
	// Bias is the curve probe's stuck-at-1 probability (unset = 0.5,
	// the paper's model).
	Bias *float64 `json:"bias,omitempty"`
	// Shards overrides the daemon's per-job shard count (0 = daemon
	// default).
	Shards int `json:"shards,omitempty"`
	// Lanes selects the bit-sliced trial width (0, the default, and 1 =
	// scalar; 2..64 = sliced; results are identical at any lane width).
	Lanes int `json:"lanes,omitempty"`
	// TimeoutSeconds bounds the job's run time (0 = daemon default).
	// An expired job fails with a deadline error; its completed shards
	// stay cached.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// RequestError is the structured error body of every non-2xx JSON
// response: the offending field (validation failures), a human message,
// and the request ID the instrumentation assigned — quote it to
// correlate a client-side failure with the daemon's logs.
type RequestError struct {
	Field     string `json:"field,omitempty"`
	Message   string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (e *RequestError) Error() string {
	if e.Field == "" {
		return e.Message
	}
	return e.Field + ": " + e.Message
}

func reqErr(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Message: fmt.Sprintf(format, args...)}
}

// normalize validates the request, fills every defaulted field in
// place, and resolves the scheme factory.  After normalize the request
// is fully explicit, which is what makes its canonical hash stable.
func (r *JobRequest) normalize() (scheme.Factory, error) {
	switch r.Kind {
	case KindBlocks, KindPages, KindCurve:
	case "":
		return nil, reqErr("kind", "required: blocks, pages or curve")
	default:
		return nil, reqErr("kind", "unknown kind %q (blocks, pages, curve)", r.Kind)
	}
	if r.Preset == "" {
		r.Preset = "quick"
	}
	p, err := experiments.Preset(r.Preset)
	if err != nil {
		return nil, reqErr("preset", "%v", err)
	}
	if r.BlockBits == 0 {
		r.BlockBits = 512
	}
	if r.BlockBits < 0 || r.BlockBits > experiments.MaxBlockBits {
		return nil, reqErr("block_bits", "must be between 1 and %d, got %d", experiments.MaxBlockBits, r.BlockBits)
	}
	if r.Scheme == "" {
		return nil, reqErr("scheme", "required (grammar: %s)", experiments.SchemeGrammar)
	}
	f, err := experiments.ParseScheme(r.Scheme, r.BlockBits)
	if err != nil {
		return nil, reqErr("scheme", "%v", err)
	}
	if r.Trials == 0 {
		switch r.Kind {
		case KindBlocks:
			r.Trials = p.BlockTrials
		case KindPages:
			r.Trials = p.PageTrials
		case KindCurve:
			r.Trials = p.CurveTrials
		}
	}
	if r.Trials < 1 {
		return nil, reqErr("trials", "must be at least 1, got %d", r.Trials)
	}
	if r.PageBytes == 0 {
		r.PageBytes = 4096
	}
	if r.Kind == KindPages && r.PageBytes*8 < r.BlockBits {
		return nil, reqErr("page_bytes", "page of %d bytes cannot hold a %d-bit block", r.PageBytes, r.BlockBits)
	}
	if r.PageBytes < 0 {
		return nil, reqErr("page_bytes", "must be positive, got %d", r.PageBytes)
	}
	if r.Seed == 0 {
		r.Seed = p.Seed
	}
	if r.Kind == KindCurve {
		if r.MaxFaults == 0 {
			r.MaxFaults = 30
		}
		if r.MaxFaults < 1 {
			return nil, reqErr("max_faults", "must be at least 1, got %d", r.MaxFaults)
		}
		if r.WritesPerStep == 0 {
			r.WritesPerStep = 8
		}
		if r.WritesPerStep < 1 {
			return nil, reqErr("writes_per_step", "must be at least 1, got %d", r.WritesPerStep)
		}
		if r.Bias == nil {
			half := 0.5
			r.Bias = &half
		}
		if *r.Bias < 0 || *r.Bias > 1 {
			return nil, reqErr("bias", "must be in [0, 1], got %v", *r.Bias)
		}
	} else {
		if r.MaxFaults != 0 || r.WritesPerStep != 0 || r.Bias != nil {
			return nil, reqErr("max_faults", "curve parameters are only valid for kind \"curve\"")
		}
	}
	if r.Shards < 0 {
		return nil, reqErr("shards", "must be non-negative, got %d", r.Shards)
	}
	if r.Lanes < 0 || r.Lanes > 64 {
		return nil, reqErr("lanes", "must be between 0 and 64, got %d", r.Lanes)
	}
	if r.TimeoutSeconds < 0 {
		return nil, reqErr("timeout_seconds", "must be non-negative, got %v", r.TimeoutSeconds)
	}
	return f, nil
}

// Normalize validates the request, fills every defaulted field in
// place, and resolves the scheme factory — the exported entry point the
// cluster worker uses to reconstruct a lease's simulation from the spec
// that crossed the wire (internal/cluster).
func (r *JobRequest) Normalize() (scheme.Factory, error) { return r.normalize() }

// SimConfig builds the sim.Config a normalized request describes; call
// Normalize first.  The cluster worker derives its shard configuration
// from this, so a leased shard keys and computes exactly like a local
// one.
func (r *JobRequest) SimConfig() sim.Config { return r.config() }

// config builds the sim.Config a normalized request describes.  The
// preset supplies the lifetime scale (see DESIGN.md §3).
func (r *JobRequest) config() sim.Config {
	p, _ := experiments.Preset(r.Preset) // normalize already validated it
	return sim.Config{
		BlockBits: r.BlockBits,
		PageBytes: r.PageBytes,
		MeanLife:  p.MeanLife,
		CoV:       p.CoV,
		Trials:    r.Trials,
		Seed:      r.Seed,
		Lanes:     r.Lanes,
	}
}

// specHash is the canonical content hash of a normalized request: two
// requests with equal hashes run the identical simulation.  It keys the
// duplicate-submission guard; the shard cache underneath uses its own,
// finer-grained keys (internal/engine.ShardKey).
func (r *JobRequest) specHash() string {
	data, err := json.Marshal(r)
	if err != nil {
		// JobRequest contains only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("serve: canonicalize request: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Job is one submitted simulation: its request, lifecycle state and —
// once finished — result or error.  All mutable fields are guarded by
// mu; the identity fields (id, seq, spec, request, factory) are set
// before the job is published and never change.
type Job struct {
	id      string
	seq     int64
	spec    string
	tenant  string
	request JobRequest
	factory scheme.Factory
	// reqID is the request ID of the submission that created the job —
	// the head of the correlation chain request → job → shard.
	reqID string

	progress *obs.Progress

	mu       sync.Mutex
	state    string
	err      error
	result   *JobResult
	created  time.Time
	started  time.Time
	finished time.Time
}

// setState transitions the job's lifecycle state.
func (j *Job) setState(state string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.err = err
	switch state {
	case StateRunning:
		j.started = time.Now().UTC()
	case StateDone, StateFailed, StateAborted:
		j.finished = time.Now().UTC()
	}
}

// snapshot returns the mutable state under the lock.
func (j *Job) snapshot() (state string, err error, result *JobResult, created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.result, j.created, j.started, j.finished
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID string `json:"id"`
	// Tenant is the X-Aegis-Tenant value the job was submitted under
	// ("default" when the header was absent).
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	// QueuePosition is the number of jobs ahead in the queue; 0 for
	// the next job to start, -1 once the job left the queue.
	QueuePosition int                  `json:"queue_position"`
	Progress      obs.ProgressSnapshot `json:"progress"`
	Error         string               `json:"error,omitempty"`
	CreatedAt     time.Time            `json:"created_at"`
	StartedAt     *time.Time           `json:"started_at,omitempty"`
	FinishedAt    *time.Time           `json:"finished_at,omitempty"`
	Request       JobRequest           `json:"request"`
	// ResultURL is set once the result is retrievable.
	ResultURL string `json:"result_url,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result response (schema
// aegis.job/v1): the merged simulation results of the job plus the
// run's per-scheme counters, histograms and shard-cache traffic.  A
// served job reports exactly what the equivalent CLI run reports — the
// daemon routes through the same engine and cache.
type JobResult struct {
	Schema  string     `json:"schema"`
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
	// Scheme is the resolved scheme's display name (e.g. "Aegis 9x61").
	Scheme string `json:"scheme"`
	Kind   string `json:"kind"`
	// ElapsedSeconds is the job's wall-clock compute time.
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// Exactly one payload is set, matching Kind.
	Blocks []sim.BlockResult `json:"blocks,omitempty"`
	Pages  []sim.PageResult  `json:"pages,omitempty"`
	Curve  []float64         `json:"curve,omitempty"`

	Counters   map[string]obs.Totals       `json:"counters"`
	Histograms map[string]obs.HistSnapshot `json:"histograms"`
	// Sharding records the job's shard-cache traffic: a resubmitted
	// spec on a warm cache shows CacheHits == Shards, CacheMisses == 0.
	Sharding obs.ShardingInfo `json:"sharding"`
}
