package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"os"
	"strconv"
	"time"

	"aegis/internal/obs"
)

// Request instrumentation and the daemon's metric surface: every API
// and debug route is wrapped in instrument(), which assigns (or adopts)
// a request ID, counts the request per route/method/status, times it
// into a latency histogram, and tracks the in-flight gauge.  All of it
// registers on the daemon's one obs.Registry, which every finished
// job's per-scheme and shard-cache series also fold into and which the
// cluster coordinator registers its families on, so GET /metrics
// renders from that registry alone.  Metric names follow DESIGN.md §14.

// serverMetrics owns the daemon's registry and its serving families.
type serverMetrics struct {
	m        *obs.Registry
	inflight *obs.Gauge
}

func newServerMetrics(s *Server) *serverMetrics {
	m := obs.NewRegistry()
	sm := &serverMetrics{
		m:        m,
		inflight: m.Gauge("aegis_http_inflight_requests", "HTTP requests currently being served."),
	}
	// Pool occupancy and queue depth evaluate at scrape time so they
	// can't drift from the server's own accounting.
	m.GaugeFunc("aegis_jobs_queued", "Jobs accepted but not yet started.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	m.GaugeFunc("aegis_jobs_running", "Jobs currently executing on the worker pool.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	m.GaugeFunc("aegis_workers", "Size of the job worker pool.", func() float64 {
		return float64(s.opts.Workers)
	})
	m.GaugeFunc("aegis_queue_capacity", "Maximum number of queued jobs before 429.", func() float64 {
		return float64(s.opts.QueueDepth)
	})
	m.GaugeFunc("aegis_event_streams", "Open SSE job-event streams.", func() float64 {
		return float64(s.streams.Load())
	})
	m.GaugeFunc("aegis_tenants", "Tenants that have submitted at least one job.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.tenants))
	})
	// The leak-gate pair: cmd/aegisload scrapes both before and after a
	// load run and fails on a delta (go_goroutines comes from the shared
	// runtime section of the exposition).
	m.GaugeFunc("aegis_open_fds", "Open file descriptors of the daemon process (-1 where /proc is unavailable).", func() float64 {
		return float64(openFDs())
	})
	return sm
}

// openFDs counts the process's open file descriptors via /proc; on
// platforms without procfs it returns -1 rather than guessing.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The ReadDir handle itself is one of the entries; don't count it.
	return len(ents) - 1
}

// jobFinished counts one job reaching a terminal state, globally and
// per tenant, and folds the job's private registry (nil for a job that
// never ran) into the service-lifetime one, so /metrics shows
// cumulative per-scheme and shard-cache totals across every job,
// whatever its outcome: cache traffic accrues even on aborted runs,
// scheme counters only on success.  Callers run it before publishing
// the terminal state, so a client that sees the state can scrape the
// job's series.
func (sm *serverMetrics) jobFinished(tenant, state string, reg *obs.Registry) {
	if reg != nil {
		for name, tot := range reg.Snapshot() {
			sm.m.AddTotals(name, tot)
		}
		for name, h := range reg.HistSnapshot() {
			sm.m.AddHist(name, h)
		}
		sm.m.AddShardTotals(reg.Shards().Totals())
	}
	sm.m.Counter("aegis_jobs_total", "Jobs finished, by terminal state.", obs.L("state", state)).Inc()
	sm.m.Counter("aegis_tenant_jobs_total", "Jobs finished, by tenant and terminal state.",
		obs.L("tenant", tenant), obs.L("state", state)).Inc()
}

// tenantSubmitted counts one accepted submission for a tenant.
func (sm *serverMetrics) tenantSubmitted(tenant string) {
	sm.m.Counter("aegis_tenant_jobs_submitted_total", "Jobs accepted, by tenant.",
		obs.L("tenant", tenant)).Inc()
}

// tenantRejected counts one quota rejection (HTTP 429) for a tenant.
func (sm *serverMetrics) tenantRejected(tenant, reason string) {
	sm.m.Counter("aegis_tenant_rejections_total", "Submissions rejected with 429, by tenant and quota.",
		obs.L("tenant", tenant), obs.L("reason", reason)).Inc()
}

// tenantQueueDepth tracks a tenant's FIFO depth.
func (sm *serverMetrics) tenantQueueDepth(tenant string, depth int) {
	sm.m.Gauge("aegis_tenant_queued", "Jobs queued, by tenant.", obs.L("tenant", tenant)).Set(int64(depth))
}

// tenantRunning tracks a tenant's running-job count.
func (sm *serverMetrics) tenantRunning(tenant string, running int) {
	sm.m.Gauge("aegis_tenant_running", "Jobs running, by tenant.", obs.L("tenant", tenant)).Set(int64(running))
}

// requestIDKey carries the request ID through the handler context.
type requestIDKey struct{}

// requestID returns the ID instrument() assigned to this request, or ""
// for un-instrumented requests (direct handler tests).
func requestID(r *http.Request) string {
	if r == nil {
		return ""
	}
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// newRequestID mints a 12-hex-digit request ID.  IDs only need to be
// unique within a log-retention window, so 48 random bits suffice.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-unavailable"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the request counter and
// preserves the wrapped writer's optional interfaces via Unwrap, which
// http.ResponseController uses — the SSE handler flushes through this
// same wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route's handler in the daemon's request
// instrumentation.  The route label is the registration pattern, not
// the raw URL, so the label cardinality is fixed no matter what clients
// request.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 64 {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Inc()
		start := time.Now()
		h.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		s.metrics.inflight.Dec()

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.m.Counter("aegis_http_requests_total", "HTTP requests served, by route, method and status.",
			obs.L("route", route), obs.L("method", r.Method), obs.L("code", strconv.Itoa(sw.status))).Inc()
		s.metrics.m.Histogram("aegis_http_request_duration_seconds", "HTTP request latency, by route.",
			1e-6, obs.L("route", route)).Observe(elapsed.Microseconds())
	})
}
