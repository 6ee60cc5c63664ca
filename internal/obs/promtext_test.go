package obs

import (
	"bufio"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches one exposition sample:
// name{labels} value  (labels optional).
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$`)

// checkExposition validates the whole text: every non-comment line is a
// well-formed sample, every family has HELP and TYPE before its first
// sample, and histogram cumulative bucket counts are non-decreasing
// with the +Inf bucket equal to the series count.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	type histState struct {
		lastCum int64
		inf     int64
	}
	hists := map[string]*histState{} // per base-name+labels(without le)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		mm := sampleLine.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := mm[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		if typed[base] == "histogram" && strings.HasSuffix(name, "_bucket") {
			labels := mm[2]
			le := ""
			if i := strings.Index(labels, `le="`); i >= 0 {
				rest := labels[i+4:]
				le = rest[:strings.Index(rest, `"`)]
			}
			key := base + stripLE(labels)
			v, err := strconv.ParseInt(mm[3], 10, 64)
			if err != nil {
				t.Fatalf("bucket count %q not an integer: %v", mm[3], err)
			}
			st := hists[key]
			if st == nil {
				st = &histState{}
				hists[key] = st
			}
			if v < st.lastCum {
				t.Fatalf("histogram %s: cumulative bucket decreased (%d after %d) at le=%s", key, v, st.lastCum, le)
			}
			st.lastCum = v
			if le == "+Inf" {
				st.inf = v
			}
		}
	}
	for key, st := range hists {
		if st.inf < st.lastCum {
			t.Fatalf("histogram %s: +Inf bucket %d below last cumulative %d", key, st.inf, st.lastCum)
		}
	}
}

// stripLE removes the le label from a rendered label set so all buckets
// of one series share a key.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, `le="`) {
			kept = append(kept, p)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// TestWritePrometheusShapes renders one of each instrument kind and
// validates the output end to end.
func TestWritePrometheusShapes(t *testing.T) {
	m := NewRegistry()
	m.Counter("aegis_requests_total", "Requests served.", L("route", "/v1/jobs"), L("code", "202")).Add(3)
	m.Gauge("aegis_inflight", "In-flight requests.").Set(2)
	m.GaugeFunc("aegis_queue_depth", "Queued jobs.", func() float64 { return 7 })
	m.CounterFunc("aegis_ticks_total", "Monotonic bridge.", func() float64 { return 41 })
	h := m.Histogram("aegis_latency_seconds", "Request latency.", 1e-6, L("route", "/v1/jobs"))
	h.Observe(3)   // µs
	h.Observe(100) // µs
	h.Observe(0)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	checkExposition(t, text)

	for _, want := range []string{
		"# TYPE aegis_requests_total counter",
		`aegis_requests_total{route="/v1/jobs",code="202"} 3`,
		"# TYPE aegis_inflight gauge",
		"aegis_inflight 2",
		"aegis_queue_depth 7",
		"aegis_ticks_total 41",
		"# TYPE aegis_latency_seconds histogram",
		`aegis_latency_seconds_count{route="/v1/jobs"} 3`,
		`aegis_latency_seconds_bucket{route="/v1/jobs",le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Families render in name order: inflight < latency < queue_depth <
	// requests_total < ticks.
	order := []string{"aegis_inflight", "aegis_latency_seconds", "aegis_queue_depth", "aegis_requests_total", "aegis_ticks_total"}
	last := -1
	for _, name := range order {
		i := strings.Index(text, "# HELP "+name+" ")
		if i < 0 {
			t.Fatalf("family %s missing", name)
		}
		if i < last {
			t.Fatalf("family %s rendered out of name order", name)
		}
		last = i
	}
	// Scale: sum = (3+100+0) µs = 1.03e-4 s.
	if !strings.Contains(text, `aegis_latency_seconds_sum{route="/v1/jobs"} 0.000103`) {
		t.Fatalf("scaled histogram sum missing:\n%s", text)
	}
}

// TestSchemeViewsRender drains counters and histograms into the
// per-scheme and shard-cache views of a Registry and checks they render
// as series of that registry's own families.
func TestSchemeViewsRender(t *testing.T) {
	reg := NewRegistry()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("fresh registry rendered %q (err %v), want nothing", sb.String(), err)
	}
	sc := reg.Scheme("Aegis 9x61")
	if c := reg.Counter("aegis_scheme_writes_total", "", L("scheme", "Aegis 9x61")); c != sc.Writes {
		t.Fatal("the scheme view and its family hold distinct series")
	}
	sc.Writes.Add(10)
	sc.RawWrites.Add(12)
	sc.Inversions.Add(4)
	sc.Salvages.Add(2)
	sc.BitWrites.Add(999)
	reg.Scheme("ECP-6").Writes.Add(7)
	reg.Histograms("Aegis 9x61").Lifetime.Observe(100)
	reg.Histograms("Aegis 9x61").Lifetime.Observe(200)
	reg.Shards().CacheHits.Add(3)
	reg.Shards().CacheMisses.Add(1)
	reg.Shards().Persisted.Add(1)

	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	checkExposition(t, text)
	for _, want := range []string{
		`aegis_scheme_writes_total{scheme="Aegis 9x61"} 10`,
		`aegis_scheme_writes_total{scheme="ECP-6"} 7`,
		`aegis_scheme_raw_writes_total{scheme="Aegis 9x61"} 12`,
		`aegis_scheme_inversions_total{scheme="Aegis 9x61"} 4`,
		`aegis_scheme_salvages_total{scheme="Aegis 9x61"} 2`,
		`aegis_scheme_bit_writes_total{scheme="Aegis 9x61"} 999`,
		`aegis_scheme_lifetime_writes_count{scheme="Aegis 9x61"} 2`,
		`aegis_scheme_lifetime_writes_sum{scheme="Aegis 9x61"} 300`,
		"aegis_shard_cache_hits_total 3",
		"aegis_shard_cache_misses_total 1",
		"aegis_shard_persisted_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("registry exposition missing %q:\n%s", want, text)
		}
	}
	// One TYPE line per family even with two scheme series.
	if n := strings.Count(text, "# TYPE aegis_scheme_writes_total counter"); n != 1 {
		t.Fatalf("aegis_scheme_writes_total TYPE appears %d times", n)
	}
}

// TestWriteRuntimeAndBuildInfo smoke-checks the runtime and build-info
// emitters.
func TestWriteRuntimeAndBuildInfo(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntime(&sb); err != nil {
		t.Fatal(err)
	}
	if err := WriteBuildInfo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	checkExposition(t, text)
	for _, want := range []string{"go_goroutines ", "go_memstats_heap_alloc_bytes ", "go_gc_pause_seconds_total ", `aegis_build_info{git_sha="`} {
		if !strings.Contains(text, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHistogramExpositionTornSnapshot: a snapshot whose bucket totals
// run ahead of its count (possible under concurrent Observe) must still
// render with +Inf ≥ the last cumulative bucket.
func TestHistogramExpositionTornSnapshot(t *testing.T) {
	torn := HistTotals{
		Count: 2, // count read before two more observations landed
		Sum:   30,
		Min:   10,
		Max:   20,
		Buckets: []Bucket{
			{Lo: 8, Hi: 15, N: 3},
			{Lo: 16, Hi: 31, N: 1},
		},
	}
	var sb strings.Builder
	p := &promWriter{w: &sb}
	p.histogram("x", "", torn, 1)
	if p.err != nil {
		t.Fatal(p.err)
	}
	text := sb.String()
	checkExposition(t, "# HELP x h\n# TYPE x histogram\n"+text)
	if !strings.Contains(text, `x_bucket{le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket not clamped to cumulative total:\n%s", text)
	}
	if !strings.Contains(text, "x_count 4") {
		t.Fatalf("count not clamped:\n%s", text)
	}
}

// TestMetricsHandlerComposes hits the handler and checks the registry's
// explicit and per-scheme families, the build info and the runtime
// basics appear in one valid exposition.
func TestMetricsHandlerComposes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aegis_http_requests_total", "h", L("route", "/metrics")).Inc()
	reg.Scheme("S").Writes.Add(5)

	h := MetricsHandler(reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != PromContentType {
		t.Fatalf("content type %q", got)
	}
	text := rec.Body.String()
	checkExposition(t, text)
	for _, want := range []string{"aegis_http_requests_total", `aegis_scheme_writes_total{scheme="S"} 5`, "go_goroutines", "aegis_build_info"} {
		if !strings.Contains(text, want) {
			t.Fatalf("combined exposition missing %q", want)
		}
	}
}
