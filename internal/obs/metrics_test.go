package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestMetricsIdempotentRegistration: re-registering the same family and
// label set returns the same instrument, so hot paths need not cache.
func TestMetricsIdempotentRegistration(t *testing.T) {
	m := NewRegistry()
	a := m.Counter("x_total", "help", L("k", "v"))
	b := m.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := m.Counter("x_total", "help", L("k", "w"))
	if a == c {
		t.Fatal("distinct label values share a counter")
	}
	g1 := m.Gauge("g", "help")
	g2 := m.Gauge("g", "help")
	if g1 != g2 {
		t.Fatal("same gauge name returned distinct gauges")
	}
	h1 := m.Histogram("h_seconds", "help", 1e-6)
	h2 := m.Histogram("h_seconds", "help", 1e-6)
	if h1 != h2 {
		t.Fatal("same histogram name returned distinct histograms")
	}
}

// TestMetricsKindMismatchPanics: one name cannot be two kinds.
func TestMetricsKindMismatchPanics(t *testing.T) {
	m := NewRegistry()
	m.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter re-registered as gauge")
		}
	}()
	m.Gauge("x_total", "help")
}

// TestGaugeOps covers the gauge arithmetic.
func TestGaugeOps(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(3)
	g.Inc()
	g.Dec()
	g.Dec()
	if v := g.Load(); v != 7 {
		t.Fatalf("gauge = %d, want 7", v)
	}
}

// TestConcurrentRegistrationAndRender hammers registration, recording
// and rendering from multiple goroutines; run under -race this pins the
// registry's locking.
func TestConcurrentRegistrationAndRender(t *testing.T) {
	m := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Counter("req_total", "h", L("code", "200")).Inc()
				m.Gauge("inflight", "h").Add(1)
				m.Histogram("lat_seconds", "h", 1e-6).Observe(int64(i))
				m.Gauge("inflight", "h").Add(-1)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := m.WritePrometheus(&sb); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	wg.Wait()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `req_total{code="200"} 800`) {
		t.Fatalf("final render missing total:\n%s", sb.String())
	}
}

// TestLabelEscaping: backslash, quote and newline must escape per the
// exposition format.
func TestLabelEscaping(t *testing.T) {
	got := labelKey([]Label{{"a", `x"y\z` + "\n"}})
	want := `{a="x\"y\\z\n"}`
	if got != want {
		t.Fatalf("labelKey = %s, want %s", got, want)
	}
}
