package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aegis/internal/serve"
)

// jsonDecode decodes one JSON value off a reader.
func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// testCtx returns a context that dies with the test.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// scrapeUntil polls /metrics until ok accepts the text.  A job's
// counters and folded series are in before its terminal state is
// visible, but the worker pool's occupancy gauges drop only after.
func scrapeUntil(t *testing.T, base string, ok func(string) bool) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		text := scrape(t, base)
		if ok(text) {
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never reached expected state:\n%s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// familySum adds up every series of one family in an exposition.
func familySum(t *testing.T, text, family string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family) + `(\{[^}]*\})? (\S+)$`)
	var sum float64
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", m[0], err)
		}
		sum += v
	}
	return sum
}

// TestMetricsEndpoint runs one job to completion and checks every
// metric source shows up on /metrics: request instrumentation, folded
// per-scheme counters, shard-cache traffic, job states, build identity
// and runtime basics.
func TestMetricsEndpoint(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 3, CacheDir: t.TempDir()})

	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, submitted)
	}
	id := submitted["id"].(string)
	waitDone(t, base, id)

	text := scrapeUntil(t, base, func(s string) bool {
		return strings.Contains(s, "aegis_jobs_running 0")
	})
	for _, want := range []string{
		`aegis_jobs_total{state="done"} 1`,
		`aegis_http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		"aegis_http_request_duration_seconds_bucket",
		"aegis_http_inflight_requests",
		`aegis_scheme_writes_total{scheme="Aegis 6x11"}`,
		`aegis_scheme_bit_writes_total{scheme="Aegis 6x11"}`,
		`aegis_scheme_lifetime_writes_count{scheme="Aegis 6x11"} 6`,
		"aegis_shard_cache_misses_total 3",
		"aegis_shard_persisted_total 3",
		"aegis_jobs_queued 0",
		"aegis_workers 1",
		"aegis_event_streams 0",
		"aegis_build_info{",
		"go_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if familySum(t, text, "aegis_scheme_writes_total") <= 0 {
		t.Fatal("no scheme writes folded into the service registry")
	}
}

// TestMetricsScrapeUnderLoad scrapes concurrently with running jobs and
// checks monotone counters never go backwards between scrapes and
// histogram series stay internally consistent (no torn reads surfacing
// as decreasing cumulative buckets).  Run with -race this also pins the
// locking of the whole scrape path.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 2, Shards: 4, CacheDir: t.TempDir()})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":12,"seed":%d}`, i+1)
			code, m := postJob(t, base, body)
			if code != http.StatusAccepted {
				t.Errorf("submit %d: %d %v", i, code, m)
				return
			}
			waitDone(t, base, m["id"].(string))
		}(i)
	}

	bucketRe := regexp.MustCompile(`(?m)^(\w+_bucket)\{([^}]*)le="([^"]+)"\} (\d+)$`)
	var lastRequests, lastMisses float64
	for i := 0; i < 40; i++ {
		text := scrape(t, base)
		if v := familySum(t, text, "aegis_http_requests_total"); v < lastRequests {
			t.Fatalf("aegis_http_requests_total went backwards: %v after %v", v, lastRequests)
		} else {
			lastRequests = v
		}
		if v := familySum(t, text, "aegis_shard_cache_misses_total"); v < lastMisses {
			t.Fatalf("aegis_shard_cache_misses_total went backwards: %v after %v", v, lastMisses)
		} else {
			lastMisses = v
		}
		// Within one scrape, each histogram's cumulative buckets must be
		// non-decreasing in le order (the order they render in).
		cums := map[string]int64{}
		for _, m := range bucketRe.FindAllStringSubmatch(text, -1) {
			key := m[1] + "{" + m[2] + "}"
			n, _ := strconv.ParseInt(m[4], 10, 64)
			if n < cums[key] {
				t.Fatalf("torn histogram read: %s le=%s dropped to %d", key, m[3], n)
			}
			cums[key] = n
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id, name, data string
}

// readEvent parses the next event off an SSE stream, skipping comment
// heartbeats.
func readEvent(sc *bufio.Scanner) (sseEvent, error) {
	var ev sseEvent
	got := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if got {
				return ev, nil
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			ev.id = line[4:]
			got = true
		case strings.HasPrefix(line, "event: "):
			ev.name = line[7:]
			got = true
		case strings.HasPrefix(line, "data: "):
			ev.data = line[6:]
			got = true
		}
	}
	if err := sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// openStream subscribes to a job's event stream.
func openStream(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSSEStream subscribes to a queued job, sees multiple progress
// frames, releases the job, and reads the terminal "done" frame.  Also
// checks a second subscriber can disconnect mid-stream without
// leaking its serving goroutine.
func TestSSEStream(t *testing.T) {
	before := runtime.NumGoroutine()

	// Started manually after the stream is open, so the queued phase is
	// arbitrarily long and frame counts are deterministic.
	s := newServer(t, serve.Options{
		Workers: 1, Shards: 2, CacheDir: t.TempDir(),
		StreamInterval: 10 * time.Millisecond,
	})
	base, closeTS := rawServer(t, s)

	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, submitted)
	}
	id := submitted["id"].(string)

	resp := openStream(t, base, id)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("stream response missing request id")
	}
	// A mid-stream disconnector rides along.
	dropper := openStream(t, base, id)

	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for frames < 3 {
		ev, err := readEvent(sc)
		if err != nil {
			t.Fatalf("reading frame %d: %v", frames, err)
		}
		if ev.name != "progress" {
			t.Fatalf("frame %d: event %q, want progress", frames, ev.name)
		}
		if !strings.Contains(ev.data, `"state":"queued"`) {
			t.Fatalf("queued-phase frame carries %s", ev.data)
		}
		if !strings.Contains(ev.data, `"`+id+`"`) {
			t.Fatalf("frame does not name its job: %s", ev.data)
		}
		frames++
	}
	dropper.Body.Close() // disconnect mid-stream

	s.Start()
	sawDone := false
	for !sawDone {
		ev, err := readEvent(sc)
		if err != nil {
			t.Fatalf("after start: %v", err)
		}
		switch ev.name {
		case "progress":
			frames++
		case "done":
			if !strings.Contains(ev.data, `"state":"done"`) {
				t.Fatalf("done frame carries %s", ev.data)
			}
			if !strings.Contains(ev.data, `"result_url"`) {
				t.Fatalf("done frame has no result_url: %s", ev.data)
			}
			sawDone = true
		default:
			t.Fatalf("unexpected event %q", ev.name)
		}
	}
	if frames < 2 {
		t.Fatalf("saw %d progress frames, want at least 2", frames)
	}
	// The stream must END after done: the server closes it.
	if _, err := readEvent(sc); err != io.EOF {
		t.Fatalf("stream still open after done frame: %v", err)
	}
	resp.Body.Close()

	// Both stream goroutines (and the dropper's) must wind down.
	closeTS()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rawServer mounts an un-Started server and returns an explicit closer
// so tests control teardown ordering.
func rawServer(t *testing.T, s *serve.Server) (string, func()) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	closed := false
	closeTS := func() {
		if !closed {
			closed = true
			ts.Close()
		}
	}
	t.Cleanup(func() {
		closeTS()
		s.Close()
	})
	return ts.URL, closeTS
}

// TestSSETerminalJob: subscribing to an already-finished job yields one
// progress frame and the done frame, then the stream closes.
func TestSSETerminalJob(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 2, CacheDir: t.TempDir()})
	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := submitted["id"].(string)
	waitDone(t, base, id)

	resp := openStream(t, base, id)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	ev, err := readEvent(sc)
	if err != nil || ev.name != "progress" {
		t.Fatalf("first event %q (%v), want progress", ev.name, err)
	}
	ev, err = readEvent(sc)
	if err != nil || ev.name != "done" {
		t.Fatalf("second event %q (%v), want done", ev.name, err)
	}
	if _, err := readEvent(sc); err != io.EOF {
		t.Fatalf("stream did not close after done: %v", err)
	}
}

// TestSSEStreamCap: subscribers beyond MaxStreams get 503 with
// Retry-After and a correlated error body.
func TestSSEStreamCap(t *testing.T) {
	s := newServer(t, serve.Options{
		Workers: 1, MaxStreams: 1,
		StreamInterval: 10 * time.Millisecond,
	})
	base, _ := rawServer(t, s) // never started: job stays queued

	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := submitted["id"].(string)

	first := openStream(t, base, id)
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first stream: %d", first.StatusCode)
	}
	// Wait for the first frame so the stream is definitely registered.
	if _, err := readEvent(bufio.NewScanner(first.Body)); err != nil {
		t.Fatal(err)
	}

	second := openStream(t, base, id)
	defer second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: %d, want 503", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var re map[string]any
	if err := jsonDecode(second.Body, &re); err != nil {
		t.Fatal(err)
	}
	if re["request_id"] == "" || re["request_id"] == nil {
		t.Fatalf("error body without request_id: %v", re)
	}
}

// TestBackpressureHeaders: queue-full 429 and draining 503 both carry
// Retry-After and a request_id-stamped body, and every response echoes
// X-Request-Id.
func TestBackpressureHeaders(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 1})
	base, _ := rawServer(t, s) // never started: the queue stays full

	code, _ := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("429 Retry-After = %q, want \"5\"", ra)
	}
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("429 without X-Request-Id header")
	}
	var body map[string]any
	if err := jsonDecode(resp.Body, &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != rid {
		t.Fatalf("body request_id %v != header %q", body["request_id"], rid)
	}

	// Draining: submissions get 503 + Retry-After.
	go s.Drain(testCtx(t))
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(smallJob))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if ra != "10" {
				t.Fatalf("503 Retry-After = %q, want \"10\"", ra)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still answers %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientRequestIDAdopted: a caller-supplied X-Request-Id flows to
// the response header unchanged.
func TestClientRequestIDAdopted(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	req, _ := http.NewRequest("GET", base+"/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-123" {
		t.Fatalf("X-Request-Id = %q, want the client's own", got)
	}
}

// TestVersionEndpoint checks /v1/version reports the build and every
// wire-format schema.
func TestVersionEndpoint(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	var v serve.VersionInfo
	if code := getJSON(t, base+"/v1/version", &v); code != http.StatusOK {
		t.Fatalf("version: %d", code)
	}
	if v.Service != "aegisd" {
		t.Fatalf("service %q", v.Service)
	}
	if v.GitSHA == "" || v.GoVersion == "" {
		t.Fatalf("incomplete build identity: %+v", v)
	}
	want := map[string]string{
		"job":      "aegis.job/v1",
		"shard":    "aegis.shard/v1",
		"manifest": "aegis.run-manifest/v3",
		"events":   "aegis.events/v1",
	}
	for k, schema := range want {
		if v.Schemas[k] != schema {
			t.Fatalf("schema %s = %q, want %q", k, v.Schemas[k], schema)
		}
	}
}

// syncWriter serializes concurrent slog writes from shard workers.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestLogCorrelationChain submits a job with a caller-chosen request ID
// and checks the chain holds through the logs: the acceptance record,
// the job lifecycle records and every engine shard record all carry
// that request ID plus the job ID and spec hash.
func TestLogCorrelationChain(t *testing.T) {
	w := &syncWriter{}
	logger := slog.New(slog.NewJSONHandler(w, nil))
	_, base := testServer(t, serve.Options{
		Workers: 1, Shards: 2, CacheDir: t.TempDir(), Logger: logger,
	})

	req, _ := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(smallJob))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "corr-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var submitted map[string]any
	if err := jsonDecode(resp.Body, &submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, submitted)
	}
	id := submitted["id"].(string)
	waitDone(t, base, id)

	// "job done" is the last record the job emits; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.String(), `"msg":"job done"`) {
		if time.Now().After(deadline) {
			t.Fatalf("no \"job done\" record:\n%s", w.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	byMsg := map[string][]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(w.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable record %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		byMsg[msg] = append(byMsg[msg], rec)
	}
	for _, msg := range []string{"job accepted", "job started", "job done"} {
		recs := byMsg[msg]
		if len(recs) != 1 {
			t.Fatalf("%d %q records, want 1:\n%s", len(recs), msg, w.String())
		}
		rec := recs[0]
		if rec["request_id"] != "corr-test-1" {
			t.Fatalf("%q record lost the request ID: %v", msg, rec)
		}
		if msg != "job accepted" && rec["job"] != id {
			t.Fatalf("%q record names job %v, want %s", msg, rec["job"], id)
		}
	}
	shards := byMsg["shard computed"]
	if len(shards) != 2 {
		t.Fatalf("%d shard records, want 2", len(shards))
	}
	for _, rec := range shards {
		if rec["request_id"] != "corr-test-1" || rec["job"] != id {
			t.Fatalf("shard record outside the correlation chain: %v", rec)
		}
		if rec["spec"] == nil || rec["shard_key"] == nil {
			t.Fatalf("shard record missing spec/shard_key: %v", rec)
		}
	}
}
