package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file holds the named metric families of Registry — counters,
// gauges and the package's lock-free log-bucket Histograms — rendered
// in Prometheus text exposition format (promtext.go) at GET /metrics on
// aegisd and aegisbench -http.  It deliberately reimplements the tiny
// subset of a metrics client the harness needs instead of importing
// one: instruments are the existing atomic types, so recording on the
// serve hot path costs one atomic add.
//
// Naming follows the Prometheus conventions the exposition format
// expects: families are snake_case with an "aegis_" prefix (Go runtime
// basics keep their conventional "go_" prefix), cumulative counters end
// in "_total", and unit-carrying families name the unit ("_seconds",
// "_bytes").  See DESIGN.md §14 for the full catalogue.

// Label is one name=value dimension of a metric series.  Label names
// must be fixed at the call site; values may vary per series (e.g. one
// series per scheme, route or HTTP status code).
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Gauge is an atomic instantaneous value, the non-monotonic counterpart
// of Counter (obs.go).  All methods are safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Metric family kinds, matching the TYPE line of the exposition format.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labelled instrument inside a family.  Exactly one of
// the value fields is set, matching the family kind: counter or fn for
// counters, gauge or fn for gauges, hist for histograms.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
	// scale multiplies histogram bucket bounds and sums at exposition
	// time, converting the integer observation unit into the exported
	// one (e.g. 1e-6 for microsecond observations exported as seconds).
	scale float64
}

// family is one named metric family: a help string, a kind and its
// labelled series in registration order.
type family struct {
	name string
	help string
	kind string

	mu     sync.Mutex
	order  []string
	series map[string]*series
}

// get returns the series registered under the rendered label set,
// creating it via make on first use.
func (f *family) get(labels []Label, make func() *series) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = make()
		s.labels = labels
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// snapshot copies the series list under the lock so rendering never
// holds it while formatting.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, len(f.order))
	for i, key := range f.order {
		out[i] = f.series[key]
	}
	return out
}

// family resolves (or creates) the named family and checks the kind
// contract.
func (r *Registry) family(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter registered under name and labels,
// creating both the family and the series on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.family(name, help, kindCounter).get(labels, func() *series {
		return &series{counter: &Counter{}}
	})
	if s.counter == nil {
		panic(fmt.Sprintf("obs: metric %q%s is not a plain counter", name, labelKey(labels)))
	}
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time.  The function must be monotonically non-decreasing
// (it renders with TYPE counter) and safe for concurrent use; exports
// of cumulative state another component already keeps (a worker's
// lease tallies, say) use this instead of double-counting into a
// Counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindCounter).get(labels, func() *series {
		return &series{fn: fn}
	})
}

// Gauge returns the gauge registered under name and labels, creating
// both the family and the series on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.family(name, help, kindGauge).get(labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q%s is not a plain gauge", name, labelKey(labels)))
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time.  fn must be safe for concurrent use; it runs on the
// scrape path, so it should be cheap and must never block on locks the
// recording paths hold across scrapes.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, kindGauge).get(labels, func() *series {
		return &series{fn: fn}
	})
}

// Histogram returns the histogram registered under name and labels,
// creating both on first use.  Observations are int64s in whatever unit
// the caller records (the log-bucket Histogram of histogram.go); scale
// converts that unit at exposition time — bucket bounds and the sum are
// multiplied by it, so a histogram observed in microseconds and
// registered with scale 1e-6 exports seconds.  Scale must agree across
// calls for one family (first registration wins; disagreement panics).
func (r *Registry) Histogram(name, help string, scale float64, labels ...Label) *Histogram {
	if scale <= 0 {
		scale = 1
	}
	s := r.family(name, help, kindHistogram).get(labels, func() *series {
		return &series{hist: &Histogram{}, scale: scale}
	})
	if s.hist == nil {
		panic(fmt.Sprintf("obs: metric %q%s is not a histogram", name, labelKey(labels)))
	}
	if s.scale != scale {
		panic(fmt.Sprintf("obs: histogram %q registered with scale %v and %v", name, s.scale, scale))
	}
	return s.hist
}

// familiesSorted snapshots the family list in name order, the stable
// rendering order of the exposition format.
func (r *Registry) familiesSorted() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// labelKey renders a label set as its exposition form, which doubles as
// the series map key: `{name="value",...}` or "" for no labels.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition format's label escaping:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
