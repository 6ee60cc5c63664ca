package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aegis/internal/cluster"
	"aegis/internal/obs"
	"aegis/internal/serve"
	"aegis/internal/sim"
	"aegis/pkg/client"
)

// svcSpec sizes a service workload.
type svcSpec struct {
	// journalMax is serve.Options.JournalMaxBytes (0 = unbounded).
	journalMax int64
	// cluster routes jobs through a coordinator and two workers.
	cluster bool
}

const (
	// The load is a closed loop: each client waits for its job's
	// verified result before submitting the next, as a researcher does.
	svcClients = 2
	// svcPoll is the clients' status-poll period.
	svcPoll = 5 * time.Millisecond
	// svcDigestJobs is how many fresh jobs per client the seed-1 output
	// digest covers; every phase completes far more.
	svcDigestJobs = 8
	// svcRecomputeEvery selects the fresh jobs recomputed by a direct
	// sim call after the phase.
	svcRecomputeEvery = 20
)

// The job mix below is an assumption, not measured traffic: there is no
// record of what aegisd's users submit, and the repository's own load
// generator (cmd/aegisload) sends only 2-trial, 64-bit blocks jobs of
// aegis:11.
// The mix is chosen to cover every job kind and every scheme family the
// paper compares, in small jobs that keep the service layers busy.  Do
// not read the service workloads' numbers as those of real users.

// svcSchemes is the job mix's scheme pool (grammar of serve.ResolveScheme).
var svcSchemes = []string{"aegis:23", "aegis:61", "aegis-rw:31", "aegis-rw-p:31:5", "ecp:6", "safer:32", "safer-cache:64", "rdis:3"}

// svcKinds is the fresh-job kind mix out of every 20 jobs of a scheme:
// 60% blocks (512-bit, 32 trials), 25% pages (512-byte pages, 8 trials),
// 15% curve (64 trials).
var svcKinds = []struct {
	spec client.JobSpec
	n    int
}{
	{client.JobSpec{Kind: "blocks", Trials: 32}, 12},
	{client.JobSpec{Kind: "pages", Trials: 8, PageBytes: 512}, 5},
	{client.JobSpec{Kind: "curve", Trials: 64}, 3},
}

// jobGen draws one client's deterministic job sequence.  Every third job
// repeats a spec the client has already seen complete; the others are
// fresh jobs with unique seeds, dealt from a seed-shuffled deck that
// holds every (scheme, kind) pair in the mix's exact proportions, so two
// seeds differ in job order and simulation seeds but not in job mix.
type jobGen struct {
	rng  *rand.Rand
	deck []client.JobSpec
	n    int
	seen []client.JobSpec
}

func newJobGen(seed int64, c int) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(deriveSeed(seed, c, "client")))}
}

func (g *jobGen) next() (client.JobSpec, bool) {
	g.n++
	if g.n%3 == 0 && len(g.seen) > 0 {
		return g.seen[g.rng.Intn(len(g.seen))], true
	}
	if len(g.deck) == 0 {
		for _, sc := range svcSchemes {
			for _, k := range svcKinds {
				s := k.spec
				s.Scheme, s.Preset = sc, "quick"
				for i := 0; i < k.n; i++ {
					g.deck = append(g.deck, s)
				}
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	s := g.deck[0]
	g.deck = g.deck[1:]
	s.Seed = g.rng.Int63() | 1
	return s, false
}

// jobRecord is one job of a phase, as the load generator saw it.
type jobRecord struct {
	client, index int // index counts the client's fresh jobs
	repeat        bool
	spec          client.JobSpec
	id            string
	// t0 submit sent, t1 accepted, t2 terminal status seen, t3 result
	// verified.
	t0, t1, t2, t3 time.Time
	status         *client.JobStatus
	retries        int
	err            error
	// counters and payload come from fresh jobs' results.
	counters map[string]obs.Totals
	canon    []byte
	payload  json.RawMessage
}

// svcInstance is a running daemon (standalone or coordinator plus two
// workers) on loopback listeners, with its shard cache and journal in a
// scratch directory.
type svcInstance struct {
	seed    int64
	dir     string
	journal string
	base    string
	srv     *serve.Server
	coord   *cluster.Coordinator
	https   []*http.Server
	serveWG sync.WaitGroup
	stopW   context.CancelFunc
	workWG  sync.WaitGroup
	jobs    []jobRecord
	// before and after are /metrics scrapes around a traced phase.
	before, after promSample
}

func newSvcInstance(spec svcSpec, seed int64, dir string, logs *logSink) (_ *svcInstance, err error) {
	in := &svcInstance{seed: seed, dir: dir, journal: filepath.Join(dir, "journal.jsonl")}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := serve.Options{
		Workers:         2,
		EngineWorkers:   1,
		Shards:          4,
		CacheDir:        filepath.Join(dir, "cache"),
		JournalPath:     in.journal,
		JournalMaxBytes: spec.journalMax,
	}
	if logs != nil {
		opts.Logger = logs.logger()
	}
	if in.srv, err = serve.New(opts); err != nil {
		return nil, err
	}
	if spec.cluster {
		in.coord = cluster.NewCoordinator(cluster.Options{
			CacheDir: opts.CacheDir,
			FanOut:   2,
			Metrics:  in.srv.Metrics(),
			Logger:   opts.Logger,
		})
		in.coord.Mount(in.srv)
		in.srv.SetRunner(in.coord)
	}
	if in.base, err = in.listen(in.srv.Handler()); err != nil {
		return nil, err
	}
	if spec.cluster {
		if err := in.startWorkers(opts.Logger); err != nil {
			return nil, err
		}
	}
	in.srv.Start()

	// One untimed warm-up job exercises every path a timed job takes.  It
	// polls every millisecond: a set-up of a few milliseconds would
	// otherwise be rounded up to the clients' 5 ms poll period.
	warm := client.JobSpec{Kind: "blocks", Scheme: "aegis:61", Preset: "quick", Trials: 8, Seed: deriveSeed(seed, -1, "warm-up")}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	cl, err := client.New(in.base, client.Options{HTTPClient: hc, PollInterval: time.Millisecond})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, warm)
	if err == nil {
		st, err = cl.Wait(ctx, st.ID)
	}
	if err == nil && st.State != client.StateDone {
		err = fmt.Errorf("warm-up job %s: %s %s", st.ID, st.State, st.Error)
	}
	if err == nil {
		_, err = cl.Result(ctx, st.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return in, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (in *svcInstance) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	in.https = append(in.https, hs)
	in.serveWG.Add(1)
	go func() {
		defer in.serveWG.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startWorkers starts two workers and waits until both have registered.
// Each keeps its registration alive with Worker.Run: a one-shot
// registration would expire after the heartbeat TTL and stall leases.
func (in *svcInstance) startWorkers(logger *slog.Logger) error {
	ctx, cancel := context.WithCancel(context.Background())
	in.stopW = cancel
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Name:     fmt.Sprintf("worker-%d", i),
			CacheDir: filepath.Join(in.dir, fmt.Sprintf("worker-%d", i)),
			Logger:   logger,
		})
		self, err := in.listen(w.Handler())
		if err != nil {
			return err
		}
		in.workWG.Add(1)
		go func() {
			defer in.workWG.Done()
			w.Run(ctx, in.base, self) //nolint:errcheck // returns ctx.Err() on close
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for in.coord.Workers() < 2 {
		if time.Now().After(deadline) {
			return errors.New("cluster workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (in *svcInstance) close() error {
	if in.stopW != nil {
		in.stopW()
		in.workWG.Wait()
	}
	var err error
	if in.srv != nil {
		err = in.srv.Close()
	}
	for _, hs := range in.https {
		hs.Close()
	}
	in.serveWG.Wait()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// run drives the closed loop until the time budget is spent; each client
// finishes the job it has in flight.
func (in *svcInstance) run(seconds float64, tr *tracer) (*phase, error) {
	if tr != nil {
		var err error
		if in.before, err = in.scrape(); err != nil {
			return nil, err
		}
		tr.logs.reset() // drop the warm-up job's records
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+60*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	perClient := make([][]jobRecord, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient[c] = in.drive(ctx, c, deadline)
		}()
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start).Seconds()}
	in.jobs = in.jobs[:0]
	for _, recs := range perClient {
		in.jobs = append(in.jobs, recs...)
	}
	for _, j := range in.jobs {
		if j.err != nil {
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, float64(j.t3.Sub(j.t0))/float64(time.Millisecond))
		for _, t := range j.counters {
			ph.writes += t.Writes
		}
	}
	ph.attempted = len(in.jobs)
	if tr != nil {
		var err error
		if in.after, err = in.scrape(); err != nil {
			return nil, err
		}
		in.recordSpans(tr)
	}
	return ph, nil
}

// drive is one client: one tenant, one keep-alive connection, zero
// think time.
func (in *svcInstance) drive(ctx context.Context, c int, deadline time.Time) []jobRecord {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	cl, err := client.New(in.base, client.Options{
		Tenant:       fmt.Sprintf("client-%d", c),
		HTTPClient:   hc,
		PollInterval: svcPoll,
	})
	if err != nil {
		return []jobRecord{{client: c, err: err}}
	}
	gen := newJobGen(in.seed, c)
	first := make(map[client.JobSpec][]byte)
	var recs []jobRecord
	fresh := 0
	for time.Now().Before(deadline) {
		spec, repeat := gen.next()
		rec := jobRecord{client: c, index: fresh, repeat: repeat, spec: spec}
		in.job(ctx, cl, &rec, first[spec])
		if !repeat {
			fresh++
			if rec.err == nil {
				first[spec] = rec.canon
				gen.seen = append(gen.seen, spec)
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// job submits one spec, waits for it, fetches the result and verifies
// it: the aegis.job/v1 schema, and for a repeat byte-identity with the
// spec's first result once the per-run fields are dropped.
func (in *svcInstance) job(ctx context.Context, cl *client.Client, rec *jobRecord, want []byte) {
	rec.t0 = time.Now()
	st, err := cl.Submit(ctx, rec.spec)
	// A resubmission can land between the previous identical job
	// reaching done and the daemon retiring it, which answers 409.
	var apiErr *client.APIError
	for err != nil && errors.As(err, &apiErr) && apiErr.IsDuplicate() && rec.retries < 1000 {
		rec.retries++
		time.Sleep(time.Millisecond)
		st, err = cl.Submit(ctx, rec.spec)
	}
	rec.t1 = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return
	}
	rec.id = st.ID
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		rec.err = fmt.Errorf("wait %s: %w", rec.id, err)
		return
	}
	rec.t2 = time.Now()
	rec.status = st
	if st.State != client.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.id, st.State, st.Error)
		return
	}
	raw, err := cl.Result(ctx, st.ID)
	if err != nil {
		rec.err = fmt.Errorf("result %s: %w", rec.id, err)
		return
	}
	doc, err := canonicalJob(raw)
	if err == nil && want != nil && !bytes.Equal(doc.canon, want) {
		err = errors.New("repeat result differs from the spec's first result")
	}
	rec.t3 = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("result %s: %w", rec.id, err)
		return
	}
	if !rec.repeat {
		rec.canon, rec.counters, rec.payload = doc.canon, doc.counters, doc.payload
	}
}

type jobDoc struct {
	canon    []byte
	counters map[string]obs.Totals
	payload  json.RawMessage
}

// canonicalJob checks an aegis.job/v1 document and strips the fields
// that legitimately differ between runs of one spec: the job id, the
// elapsed time and the shard-cache traffic.
func canonicalJob(raw []byte) (jobDoc, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return jobDoc{}, err
	}
	var schema, kind string
	if err := json.Unmarshal(m["schema"], &schema); err != nil || schema != serve.JobSchema {
		return jobDoc{}, fmt.Errorf("schema %q, want %q", schema, serve.JobSchema)
	}
	if err := json.Unmarshal(m["kind"], &kind); err != nil {
		return jobDoc{}, fmt.Errorf("kind: %w", err)
	}
	doc := jobDoc{payload: m[kind]}
	if len(doc.payload) == 0 {
		return jobDoc{}, fmt.Errorf("no %q payload", kind)
	}
	if err := json.Unmarshal(m["counters"], &doc.counters); err != nil {
		return jobDoc{}, fmt.Errorf("counters: %w", err)
	}
	delete(m, "id")
	delete(m, "elapsed_seconds")
	delete(m, "sharding")
	canon, err := json.Marshal(m)
	doc.canon = canon
	return doc, err
}

// check verifies the phase: every job done (repeats were compared as
// they completed), and one fresh job in svcRecomputeEvery recomputed
// through serve.JobRequest and a direct sim call.  It returns the digest
// of the first svcDigestJobs fresh results of each client.
func (in *svcInstance) check() (string, error) {
	h := sha256.New()
	fresh := make([]int, svcClients)
	for _, j := range in.jobs {
		if j.err != nil {
			return "", j.err
		}
		if !j.repeat {
			fresh[j.client]++
		}
	}
	for c, n := range fresh {
		if n < svcDigestJobs {
			return "", fmt.Errorf("client %d completed %d fresh jobs, fewer than the %d the output digest covers", c, n, svcDigestJobs)
		}
	}
	for _, j := range in.jobs {
		if j.repeat {
			continue
		}
		if j.index < svcDigestJobs {
			fmt.Fprintf(h, "%d/%d %s\n", j.client, j.index, j.canon)
		}
		if j.index%svcRecomputeEvery == 0 {
			if err := recompute(j); err != nil {
				return "", fmt.Errorf("job %s: %w", j.id, err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// recompute runs a fresh job's spec directly and compares the payload.
func recompute(j jobRecord) error {
	data, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	var req serve.JobRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return err
	}
	f, err := req.Normalize()
	if err != nil {
		return err
	}
	cfg := req.SimConfig()
	var want any
	switch req.Kind {
	case serve.KindBlocks:
		want = sim.Blocks(f, cfg)
	case serve.KindPages:
		want = sim.Pages(f, cfg)
	case serve.KindCurve:
		want = sim.FailureCurveBias(f, cfg, req.MaxFaults, req.WritesPerStep, *req.Bias)
	default:
		return fmt.Errorf("unknown kind %q", req.Kind)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, j.payload); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), wantJSON) {
		return fmt.Errorf("served %s payload differs from a direct sim run of the same spec", req.Kind)
	}
	return nil
}

// recordSpans builds each job's span tree from the client's timestamps,
// the daemon's job timestamps and its "shard computed" (standalone) or
// "lease computed" (worker) log records.
func (in *svcInstance) recordSpans(tr *tracer) {
	shards := make(map[string][]logRecord)
	for _, r := range tr.logs.records() {
		switch {
		case r.Msg == "shard computed" && r.str("job") != "",
			r.Msg == "lease computed" && !r.boolean("cache_hit"):
			shards[r.str("job")] = append(shards[r.str("job")], r)
		}
	}
	for _, j := range in.jobs {
		st := j.status
		if j.err != nil || st == nil || st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		root := tr.spans.add(j.id, "job", 0, j.t0, j.t3)
		tr.spans.add(j.id, "serve.submit", root, j.t0, j.t1)
		tr.spans.add(j.id, "serve.queue", root, st.CreatedAt, *st.StartedAt)
		run := tr.spans.add(j.id, "serve.run", root, *st.StartedAt, *st.FinishedAt)
		for _, r := range shards[j.id] {
			tr.spans.add(j.id, "engine.shard", run, r.Time.Add(-r.dur("elapsed")), r.Time)
		}
		tr.spans.add(j.id, "serve.poll_lag", root, *st.FinishedAt, j.t2)
		tr.spans.add(j.id, "serve.result", root, j.t2, j.t3)
	}
}
