package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"sync/atomic"

	"aegis/internal/obs"
)

// profiler owns the lifecycle of the -cpuprofile/-memprofile/-trace
// outputs for one harness run.
type profiler struct {
	cpuFile   *os.File
	traceFile *os.File
	memPath   string
}

// startProfiles begins CPU profiling and execution tracing as requested.
// Call stop (even on error paths) to flush everything.
func startProfiles(cpuPath, memPath, tracePath string) (*profiler, error) {
	p := &profiler{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			p.stopCPU()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			p.stopCPU()
			return nil, fmt.Errorf("-trace: %w", err)
		}
		p.traceFile = f
	}
	return p, nil
}

func (p *profiler) stopCPU() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
}

// stop flushes the CPU profile and trace and writes the heap profile.
func (p *profiler) stop() error {
	p.stopCPU()
	if p.traceFile != nil {
		trace.Stop()
		if err := p.traceFile.Close(); err != nil {
			return err
		}
		p.traceFile = nil
	}
	if p.memPath != "" {
		return writeHeapProfile(p.memPath)
	}
	return nil
}

// writeHeapProfile forces a GC and snapshots the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC() // get up-to-date heap statistics
	werr := pprof.Lookup("heap").WriteTo(f, 0)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("-memprofile: %w", werr)
	}
	return cerr
}

// debugRegistry holds the registry the process-global expvar variable
// reads.  A pointer swap (rather than capturing one run's registry in
// the published closure) keeps repeated in-process runs publishing the
// current run's counters.
var (
	debugRegistry atomic.Pointer[obs.Registry]
	publishOnce   sync.Once
)

// publishCounters exposes the run's scheme counters as the expvar
// variable "aegis.counters" (visible under /debug/vars).  expvar.Publish
// panics on duplicate names, so guard against repeated runs in-process.
func publishCounters(reg *obs.Registry) {
	debugRegistry.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("aegis.counters", expvar.Func(func() any {
			return debugRegistry.Load().Snapshot()
		}))
	})
}

// progressHandler serves the JSON form of the live progress line.
func progressHandler(prog *obs.Progress) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(prog.Snapshot())
	})
}

// newDebugMux builds the -http surface over the run's registry: the
// shared operational endpoints of obs.RegisterDebug — GET /metrics
// (Prometheus text exposition), /debug/pprof/* and /debug/vars, the
// identical surface aegisd mounts — plus the per-binary
// /debug/aegis/progress.  The run's live progress registers on reg as
// scrape-time gauges, next to its per-scheme and shard-cache families.
func newDebugMux(reg *obs.Registry, prog *obs.Progress) *http.ServeMux {
	publishCounters(reg)
	reg.GaugeFunc("aegis_bench_trials_done", "Monte Carlo trials the current run has completed.",
		func() float64 { return float64(prog.Snapshot().TrialsDone) })
	reg.GaugeFunc("aegis_bench_trials_total", "Monte Carlo trials the current run has registered.",
		func() float64 { return float64(prog.Snapshot().TrialsTotal) })
	reg.GaugeFunc("aegis_bench_trials_per_second", "Average trial completion rate of the current run.",
		func() float64 { return prog.Snapshot().TrialsPerSec })
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, reg, nil)
	mux.Handle("GET /debug/aegis/progress", progressHandler(prog))
	return mux
}

// serveDebug starts the opt-in diagnostics endpoint.  Profiling long
// runs: `aegisbench -exp all -preset full -http localhost:6060`, then
// `go tool pprof http://localhost:6060/debug/pprof/profile`; scrape
// progress with `curl localhost:6060/metrics`.
func serveDebug(addr string, reg *obs.Registry, prog *obs.Progress) {
	mux := newDebugMux(reg, prog)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "aegisbench: -http:", err)
		}
	}()
}
