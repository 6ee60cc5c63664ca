package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// The shared debug surface of the harness binaries.  aegisd mounts it
// on its API mux and aegisbench -http serves it standalone, so both
// expose the identical operational endpoints: GET /metrics (Prometheus
// text exposition), /debug/pprof/* and /debug/vars.  The live-progress
// endpoint stays per-binary — aegisd serves a map of per-job snapshots,
// aegisbench a single run's — but lives at the same /debug/aegis/
// progress path in both.

// MetricsHandler serves the metrics surface in Prometheus text
// exposition format: every family of reg, then the build-info
// pseudo-metric and the Go runtime basics.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		if err := reg.WritePrometheus(w); err != nil {
			return // client went away; nothing to do
		}
		if err := WriteBuildInfo(w); err != nil {
			return
		}
		WriteRuntime(w) //nolint:errcheck // tail write; same disposition
	})
}

// Middleware adapts one route's handler; RegisterDebug applies it to
// every route it mounts so servers can wrap the debug surface in the
// same request instrumentation as their API routes.  A nil Middleware
// mounts handlers unwrapped.
type Middleware func(route string, h http.Handler) http.Handler

// RegisterDebug mounts the shared debug surface on mux: GET /metrics
// over reg, the net/http/pprof handlers under /debug/pprof/ and the
// process expvar state at /debug/vars.
func RegisterDebug(mux *http.ServeMux, reg *Registry, wrap Middleware) {
	if wrap == nil {
		wrap = func(route string, h http.Handler) http.Handler { return h }
	}
	mux.Handle("GET /metrics", wrap("/metrics", MetricsHandler(reg)))
	mux.Handle("GET /debug/vars", wrap("/debug/vars", expvar.Handler()))
	mux.Handle("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
	mux.Handle("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	mux.Handle("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	mux.Handle("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	mux.Handle("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}
