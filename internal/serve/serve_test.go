package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"aegis/internal/core"
	"aegis/internal/engine"
	"aegis/internal/experiments"
	"aegis/internal/serve"
	"aegis/internal/sim"
)

// newServer builds a Server, failing the test on a construction error
// (only possible with a journal path).
func newServer(t *testing.T, opts serve.Options) *serve.Server {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testServer boots a started Server behind httptest and tears both down
// with the test.
func testServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	s := newServer(t, opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			s.Close()
		}
	})
	return s, ts.URL
}

// postJob submits raw JSON and decodes the response body generically.
func postJob(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode %d response: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s (%d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode
}

// waitDone polls a job to a terminal state and returns it.
func waitDone(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st serve.JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateAborted:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const smallJob = `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":6,"seed":5}`

// TestJobLifecycle drives one job through submit → status → result and
// checks the result carries the full observability payload.
func TestJobLifecycle(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 3, CacheDir: t.TempDir()})

	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, submitted)
	}
	id, _ := submitted["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", submitted)
	}

	st := waitDone(t, base, id)
	if st.State != serve.StateDone {
		t.Fatalf("state %q, error %q", st.State, st.Error)
	}
	if st.QueuePosition != -1 {
		t.Fatalf("finished job still reports queue position %d", st.QueuePosition)
	}
	if st.Progress.TrialsDone != 6 {
		t.Fatalf("progress reports %d/6 trials", st.Progress.TrialsDone)
	}
	if st.ResultURL == "" {
		t.Fatal("done job has no result_url")
	}

	var res serve.JobResult
	if code := getJSON(t, base+st.ResultURL, &res); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if res.Schema != serve.JobSchema {
		t.Fatalf("schema %q", res.Schema)
	}
	if len(res.Blocks) != 6 {
		t.Fatalf("%d block results", len(res.Blocks))
	}
	if res.Scheme == "" || res.Counters[res.Scheme].Writes == 0 {
		t.Fatalf("counters missing for scheme %q: %v", res.Scheme, res.Counters)
	}
	if res.Histograms[res.Scheme].Lifetime.Count == 0 {
		t.Fatal("lifetime histogram empty")
	}
	sh := res.Sharding
	if sh.ShardSchema != engine.ShardSchema || sh.Shards != 3 {
		t.Fatalf("sharding info %+v", sh)
	}
	if sh.CacheHits != 0 || sh.CacheMisses != 3 || sh.Persisted != 3 {
		t.Fatalf("cold run cache traffic %+v", sh)
	}
}

// TestServedMatchesDirect: the daemon must return bit-identical results
// to calling the engine directly with the same parameters — serving is
// pure transport.
func TestServedMatchesDirect(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 3})
	code, submitted := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitDone(t, base, submitted["id"].(string))
	var res serve.JobResult
	getJSON(t, base+st.ResultURL, &res)

	p := experiments.Quick()
	eng := &engine.Engine{Shards: 3}
	want, err := eng.Blocks(core.MustFactory(64, 11), sim.Config{
		BlockBits: 64, PageBytes: 4096,
		MeanLife: p.MeanLife, CoV: p.CoV,
		Trials: 6, Seed: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Blocks, want) {
		t.Fatalf("served results diverge from direct engine run\nserved: %+v\ndirect: %+v", res.Blocks, want)
	}
}

// TestServedLanesMatchesScalar submits the same job bit-sliced and
// scalar; results must be byte-identical and the manifest must record
// the requested lane width.
func TestServedLanesMatchesScalar(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 2})
	slicedJob := `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":70,"seed":5,"lanes":64}`
	scalarJob := `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":70,"seed":5,"lanes":1}`
	run := func(body string) serve.JobResult {
		code, submitted := postJob(t, base, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		st := waitDone(t, base, submitted["id"].(string))
		var res serve.JobResult
		getJSON(t, base+st.ResultURL, &res)
		return res
	}
	sliced, scalar := run(slicedJob), run(scalarJob)
	if !reflect.DeepEqual(sliced.Blocks, scalar.Blocks) {
		t.Fatalf("sliced served results diverge from scalar\nsliced: %+v\nscalar: %+v", sliced.Blocks, scalar.Blocks)
	}
	if !reflect.DeepEqual(sliced.Counters, scalar.Counters) {
		t.Fatalf("sliced served counters diverge from scalar\nsliced: %+v\nscalar: %+v", sliced.Counters, scalar.Counters)
	}
	if sliced.Sharding.Lanes != 64 || scalar.Sharding.Lanes != 1 {
		t.Fatalf("sharding block lanes = %d / %d, want 64 / 1", sliced.Sharding.Lanes, scalar.Sharding.Lanes)
	}
}

// TestInvalidPayloads: every malformed request must produce a 400 with
// a structured error naming the offending field.
func TestInvalidPayloads(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	cases := []struct {
		name  string
		body  string
		field string // expected "field" in the error body ("" = any)
	}{
		{"empty object", `{}`, "kind"},
		{"unknown kind", `{"kind":"device","scheme":"aegis:61"}`, "kind"},
		{"missing scheme", `{"kind":"blocks"}`, "scheme"},
		{"unknown scheme family", `{"kind":"blocks","scheme":"hamming:7"}`, "scheme"},
		{"scheme arity", `{"kind":"blocks","scheme":"aegis:61:9"}`, "scheme"},
		{"scheme non-integer", `{"kind":"blocks","scheme":"aegis:many"}`, "scheme"},
		{"pointer budget beyond B", `{"kind":"blocks","scheme":"aegis-rw-p:61:4611686018427387904","trials":2}`, "scheme"},
		{"aegis-p budget beyond B", `{"kind":"blocks","scheme":"aegis-p:61:62"}`, "scheme"},
		{"mask table of B=509", `{"kind":"blocks","scheme":"aegis:509"}`, "scheme"},
		{"mask table of B=10007", `{"kind":"blocks","scheme":"aegis:10007"}`, "scheme"},
		{"ecp entries beyond cells", `{"kind":"blocks","scheme":"ecp:1000000000"}`, "scheme"},
		{"bad preset", `{"kind":"blocks","scheme":"aegis:61","preset":"huge"}`, "preset"},
		{"negative trials", `{"kind":"blocks","scheme":"aegis:61","trials":-3}`, "trials"},
		{"negative block bits", `{"kind":"blocks","scheme":"aegis:61","block_bits":-512}`, "block_bits"},
		{"page smaller than block", `{"kind":"pages","scheme":"aegis:61","page_bytes":16}`, "page_bytes"},
		{"curve params on blocks", `{"kind":"blocks","scheme":"aegis:61","max_faults":10}`, "max_faults"},
		{"bias out of range", `{"kind":"curve","scheme":"aegis:61","bias":1.5}`, "bias"},
		{"negative shards", `{"kind":"blocks","scheme":"aegis:61","shards":-1}`, "shards"},
		{"negative lanes", `{"kind":"blocks","scheme":"aegis:61","lanes":-1}`, "lanes"},
		{"lanes beyond word", `{"kind":"blocks","scheme":"aegis:61","lanes":65}`, "lanes"},
		{"negative timeout", `{"kind":"blocks","scheme":"aegis:61","timeout_seconds":-2}`, "timeout_seconds"},
		{"unknown field", `{"kind":"blocks","scheme":"aegis:61","cheese":1}`, ""},
		{"block bits beyond bound", `{"kind":"blocks","scheme":"aegis:61","block_bits":1099511627776}`, "block_bits"},
		{"malformed json", `{"kind":`, ""},
		{"non-object", `42`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJob(t, base, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, body %v", code, body)
			}
			msg, _ := body["error"].(string)
			if msg == "" {
				t.Fatalf("no error message in %v", body)
			}
			if field, _ := body["field"].(string); tc.field != "" && field != tc.field {
				t.Fatalf("error field %q, want %q (message: %s)", field, tc.field, msg)
			}
		})
	}
}

// TestHostileSpecsKeepDaemonUp: specs whose parameters would crash a
// trial or exhaust memory are refused at submit, and the daemon keeps
// answering and running jobs afterwards.
func TestHostileSpecsKeepDaemonUp(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	for _, spec := range []string{"aegis-rw-p:61:4611686018427387904", "aegis:1009", "aegis:10007", "ecp:1000000000"} {
		body := fmt.Sprintf(`{"kind":"blocks","scheme":%q,"trials":2}`, spec)
		if code, m := postJob(t, base, body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %v", spec, code, m)
		}
	}
	var h map[string]any
	if code := getJSON(t, base+"/v1/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
	code, m := postJob(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit after hostile specs: %d %v", code, m)
	}
	if st := waitDone(t, base, m["id"].(string)); st.State != serve.StateDone {
		t.Fatalf("job after hostile specs ended %q", st.State)
	}
}

// TestUnknownJob404 covers both lookup endpoints.
func TestUnknownJob404(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		var m map[string]any
		if code := getJSON(t, base+path, &m); code != http.StatusNotFound {
			t.Fatalf("%s: %d", path, code)
		}
	}
}

// Unstarted-server tests: with no workers consuming the queue, queue
// states are exact rather than racing against job completion.

// TestResultBeforeCompletion: asking for a queued job's result is a 409,
// not a 404 (the job exists) and not an empty 200.
func TestResultBeforeCompletion(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, submitted := postJob(t, ts.URL, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := submitted["id"].(string)
	var m map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &m); code != http.StatusConflict {
		t.Fatalf("result of queued job: %d, want 409", code)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "queued") {
		t.Fatalf("error %q does not name the state", m["error"])
	}
}

// TestDuplicateActive409: submitting a spec identical to a live job is
// refused with a pointer to that job, so clients poll instead of
// double-computing.
func TestDuplicateActive409(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, first := postJob(t, ts.URL, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	code, second := postJob(t, ts.URL, smallJob)
	if code != http.StatusConflict {
		t.Fatalf("duplicate submit: %d, want 409", code)
	}
	if second["id"] != first["id"] {
		t.Fatalf("409 points at %v, want %v", second["id"], first["id"])
	}
	// Field order and formatting must not defeat the dedup: same spec,
	// different JSON spelling.
	reordered := `{"seed":5,"trials":6,"block_bits":64,"scheme":"aegis:11","kind":"blocks"}`
	if code, _ := postJob(t, ts.URL, reordered); code != http.StatusConflict {
		t.Fatalf("reordered duplicate: %d, want 409", code)
	}
	// A genuinely different spec is accepted.
	if code, _ := postJob(t, ts.URL, `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":6,"seed":6}`); code != http.StatusAccepted {
		t.Fatalf("distinct spec: %d, want 202", code)
	}
}

// TestQueuePositionsAndBackpressure: positions are exact on an
// unstarted server, and the bounded queue answers 429 past its depth.
func TestQueuePositionsAndBackpressure(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1, QueueDepth: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 3)
	for i := range ids {
		body := fmt.Sprintf(`{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":6,"seed":%d}`, i+1)
		code, m := postJob(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = m["id"].(string)
	}
	for i, id := range ids {
		var st serve.JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State != serve.StateQueued || st.QueuePosition != i {
			t.Fatalf("job %d: state %q position %d", i, st.State, st.QueuePosition)
		}
	}
	code, m := postJob(t, ts.URL, `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":6,"seed":99}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d %v, want 429", code, m)
	}
}

// TestRerunServedFromCache is the service-level resume guarantee: a
// second daemon pointed at the same cache directory serves an identical
// spec entirely from cached shards — zero recomputation — with results
// byte-identical to the first run.
func TestRerunServedFromCache(t *testing.T) {
	cacheDir := t.TempDir()
	opts := serve.Options{Workers: 1, Shards: 4, CacheDir: cacheDir}

	runOnce := func() serve.JobResult {
		s := newServer(t, opts)
		s.Start()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, submitted := postJob(t, ts.URL, smallJob)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		st := waitDone(t, ts.URL, submitted["id"].(string))
		if st.State != serve.StateDone {
			t.Fatalf("state %q: %s", st.State, st.Error)
		}
		var res serve.JobResult
		getJSON(t, ts.URL+st.ResultURL, &res)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		return res
	}

	first := runOnce()
	if first.Sharding.CacheMisses != 4 || first.Sharding.Persisted != 4 {
		t.Fatalf("first run traffic %+v", first.Sharding)
	}
	second := runOnce() // a fresh daemon: only the cache directory is shared
	if second.Sharding.CacheHits != 4 || second.Sharding.CacheMisses != 0 {
		t.Fatalf("second run not fully cached: %+v", second.Sharding)
	}
	if !reflect.DeepEqual(first.Blocks, second.Blocks) {
		t.Fatal("cached rerun changed results")
	}
	if !reflect.DeepEqual(first.Counters, second.Counters) {
		t.Fatal("cached rerun changed counters")
	}
	if !reflect.DeepEqual(first.Histograms, second.Histograms) {
		t.Fatal("cached rerun changed histograms")
	}
}

// TestCurveAndPagesKinds: the other two job kinds round-trip and match
// their direct-sim references.
func TestCurveAndPagesKinds(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 2})
	p := experiments.Quick()
	f := core.MustFactory(64, 11)

	code, m := postJob(t, base, `{"kind":"curve","scheme":"aegis:11","block_bits":64,"trials":8,"seed":3,"max_faults":6,"writes_per_step":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("curve submit: %d %v", code, m)
	}
	st := waitDone(t, base, m["id"].(string))
	var res serve.JobResult
	getJSON(t, base+st.ResultURL, &res)
	want := sim.FailureCurveBias(f, sim.Config{
		BlockBits: 64, PageBytes: 4096, MeanLife: p.MeanLife, CoV: p.CoV,
		Trials: 8, Seed: 3, Workers: 1,
	}, 6, 4, 0.5)
	if !reflect.DeepEqual(res.Curve, want) {
		t.Fatalf("curve diverges: %v vs %v", res.Curve, want)
	}

	code, m = postJob(t, base, `{"kind":"pages","scheme":"aegis:11","block_bits":64,"page_bytes":64,"trials":4,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("pages submit: %d %v", code, m)
	}
	st = waitDone(t, base, m["id"].(string))
	if st.State != serve.StateDone {
		t.Fatalf("pages job %q: %s", st.State, st.Error)
	}
	getJSON(t, base+st.ResultURL, &res)
	if len(res.Pages) != 4 {
		t.Fatalf("%d page results", len(res.Pages))
	}
}

// TestJobTimeoutFails: a job whose deadline expires mid-run fails with
// a deadline error and never reports a result.
func TestJobTimeoutFails(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1, Shards: 2})
	// A hefty 512-bit job with a 1 ns deadline: the context expires
	// before the first trial.
	body := `{"kind":"blocks","scheme":"aegis:61","trials":64,"seed":2,"timeout_seconds":1e-9}`
	code, m := postJob(t, base, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	st := waitDone(t, base, m["id"].(string))
	if st.State != serve.StateFailed {
		t.Fatalf("state %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
	var e map[string]any
	if code := getJSON(t, base+"/v1/jobs/"+m["id"].(string)+"/result", &e); code != http.StatusConflict {
		t.Fatalf("result of failed job: %d, want 409", code)
	}
}

// TestHealthzAndProgress smoke-tests the operational endpoints.
func TestHealthzAndProgress(t *testing.T) {
	_, base := testServer(t, serve.Options{Workers: 1})
	var h map[string]any
	if code := getJSON(t, base+"/v1/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz %v", h)
	}
	var p map[string]any
	if code := getJSON(t, base+"/debug/aegis/progress", &p); code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var list map[string]any
	if code := getJSON(t, base+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
}

// TestDrainRejectsSubmissions: a draining server answers 503 and points
// the client at the cache-backed retry story.
func TestDrainRejectsSubmissions(t *testing.T) {
	s := newServer(t, serve.Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, m := postJob(t, ts.URL, smallJob)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %v, want 503", code, m)
	}
	var h map[string]any
	getJSON(t, ts.URL+"/v1/healthz", &h)
	if h["status"] != "draining" {
		t.Fatalf("healthz after drain: %v", h)
	}
}
