package obs

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4) for the families of
// a Registry, followed by the build identity and the Go runtime basics
// every long-running service wants on a dashboard.  Everything renders
// from atomic snapshots, so scraping concurrently with a run is safe;
// see promWriter.histogram for how the log-bucket histograms stay
// internally consistent under concurrent Observe calls.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates exposition lines, remembering the first write
// error so call sites can stay unconditional.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP/TYPE preamble of one family.  The exposition
// format requires all series of a family to follow one preamble, so
// every emitter below groups its series accordingly.
func (p *promWriter) header(name, help, kind string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// value emits one sample line.
func (p *promWriter) value(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, formatFloat(v))
}

// formatFloat renders a sample value: integers without an exponent,
// everything else in Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histogram emits one histogram series: cumulative buckets keyed by
// inclusive upper bound (le), then sum and count.  The log-bucket
// HistTotals snapshot reads its atomics one by one, so a snapshot taken
// mid-Observe can carry a bucket total ahead of the count; the +Inf
// bound is clamped up to the cumulative bucket total so the rendered
// series is always internally consistent (cumulative counts
// non-decreasing, +Inf equal to the largest), which is what the
// scrape-under-load tests pin.
func (p *promWriter) histogram(name, labels string, t HistTotals, scale float64) {
	// Re-open the label set to append le.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	var cum int64
	for _, b := range t.Buckets {
		cum += b.N
		p.printf("%s_bucket%sle=\"%s\"} %d\n", name, open, formatFloat(float64(b.Hi)*scale), cum)
	}
	count := t.Count
	if count < cum {
		count = cum
	}
	p.printf("%s_bucket%sle=\"+Inf\"} %d\n", name, open, count)
	p.value(name+"_sum", labels, float64(t.Sum)*scale)
	p.printf("%s_count%s %d\n", name, labels, count)
}

// WritePrometheus renders every registered family in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}
	for _, f := range r.familiesSorted() {
		p.header(f.name, f.help, f.kind)
		for _, s := range f.snapshot() {
			labels := labelKey(s.labels)
			switch {
			case s.counter != nil:
				p.value(f.name, labels, float64(s.counter.Load()))
			case s.gauge != nil:
				p.value(f.name, labels, float64(s.gauge.Load()))
			case s.fn != nil:
				p.value(f.name, labels, s.fn())
			case s.hist != nil:
				p.histogram(f.name, labels, s.hist.Totals(), s.scale)
			}
		}
	}
	return p.err
}

// WriteRuntime renders the Go runtime basics: goroutines, heap, GC.
// ReadMemStats stops the world for a few microseconds; at scrape rates
// (seconds apart) that is noise.
func WriteRuntime(w io.Writer) error {
	p := &promWriter{w: w}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.header("go_goroutines", "Number of goroutines that currently exist.", kindGauge)
	p.value("go_goroutines", "", float64(runtime.NumGoroutine()))
	p.header("go_memstats_heap_alloc_bytes", "Heap bytes allocated and still in use.", kindGauge)
	p.value("go_memstats_heap_alloc_bytes", "", float64(ms.HeapAlloc))
	p.header("go_memstats_heap_objects", "Number of allocated heap objects.", kindGauge)
	p.value("go_memstats_heap_objects", "", float64(ms.HeapObjects))
	p.header("go_memstats_alloc_bytes_total", "Total bytes allocated on the heap, freed bytes included.", kindCounter)
	p.value("go_memstats_alloc_bytes_total", "", float64(ms.TotalAlloc))
	p.header("go_gc_cycles_total", "Completed garbage-collection cycles.", kindCounter)
	p.value("go_gc_cycles_total", "", float64(ms.NumGC))
	p.header("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", kindCounter)
	p.value("go_gc_pause_seconds_total", "", float64(ms.PauseTotalNs)/1e9)
	return p.err
}

// WriteBuildInfo renders the build-identity pseudo-metric: a constant 1
// carrying the revision and toolchain as labels, the standard
// Prometheus idiom for joining version info onto other series.
func WriteBuildInfo(w io.Writer) error {
	p := &promWriter{w: w}
	labels := labelKey([]Label{
		{"git_sha", GitSHA()},
		{"go_version", GoVersion()},
		{"goos", GOOS()},
		{"goarch", GOARCH()},
	})
	p.header("aegis_build_info", "Build identity of the running binary (value is always 1).", kindGauge)
	p.value("aegis_build_info", labels, 1)
	return p.err
}
