package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aegis/internal/engine"
	"aegis/internal/obs"
	"aegis/internal/serve"
)

// layerMetrics fills every per-layer metric from a traced phase (tph),
// the untraced phase before it (ph) and the probe.  Metrics of layers a
// workload does not use stay zero.
func layerMetrics(m metricSet, inst instance, ph, tph *phase, tr *tracer, p *probeResult) {
	for _, d := range perLayer {
		m.set(perLayer, d.name, 0)
	}
	m.set(perLayer, "xrand.fill_ns", p.fillNs)
	m.set(perLayer, "xrand.seed_ns", p.seedNs)
	m.set(perLayer, "pcm.write_ns", p.pcmWriteNs)
	m.set(perLayer, "pcm.verify_ns", p.pcmVerifyNs)
	m.set(perLayer, "pcm.reset_ns", p.resetN)
	for _, f := range families {
		w, s := p.familyCost(f)
		m.set(perLayer, "scheme.write_ns."+f, w)
		m.set(perLayer, "scheme.self_ns."+f, s)
	}
	if len(p.loadMs) > 0 {
		m.set(perLayer, "engine.load_shard_ms_p50", median(p.loadMs))
		m.set(perLayer, "engine.write_shard_ms_p50", median(p.writeMs))
	}
	// The runtime's costs belong to the program, not the tracer: they
	// come from the untraced phase.
	m.set(perLayer, "runtime.alloc_kb_per_job", float64(ph.proc.alloc)/1024/float64(len(ph.lat)))
	m.set(perLayer, "runtime.gc_cycles", float64(ph.proc.gcCycles))
	if ph.proc.allCPU > 0 {
		m.set(perLayer, "runtime.gc_cpu_share", ph.proc.gcCPU/ph.proc.allCPU)
	}
	m.set(perLayer, "trace.overhead_share",
		(float64(len(ph.lat))/ph.wall)/(float64(len(tph.lat))/tph.wall)-1)
	inst.layers(m, tr)

	// Attribution: probe unit costs times the phase's counts, against the
	// process CPU time the phase used.
	var explained float64 // ns
	for _, w := range inst.work() {
		if c := p.costs[w.key]; c != nil && c.requests > 0 {
			explained += float64(w.writes) * (c.perWrite() + p.fillNs*float64(w.key.bits)/512)
		}
		explained += float64(w.blocks) * p.resetN
	}
	if len(p.loadMs) > 0 {
		explained += 1e6 * (m["engine.cache_hits"].Value*mean(p.loadMs) +
			m["engine.shards_persisted"].Value*mean(p.writeMs))
	}
	cpu := tph.proc.cpu
	m.set(perLayer, "attrib.explained_share", explained/1e9/cpu)
	m.set(perLayer, "attrib.unexplained_s", cpu-explained/1e9)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setTotals sets the scheme, pcm and sim counts from operation totals.
func setTotals(m metricSet, t obs.Totals, trials int64) {
	m.set(perLayer, "pcm.raw_writes", float64(t.RawWrites))
	m.set(perLayer, "pcm.bit_writes", float64(t.BitWrites))
	m.set(perLayer, "scheme.writes", float64(t.Writes))
	if t.Writes > 0 {
		m.set(perLayer, "scheme.raw_per_write", float64(t.RawWrites)/float64(t.Writes))
		m.set(perLayer, "scheme.verify_per_write", float64(t.VerifyReads)/float64(t.Writes))
	}
	m.set(perLayer, "scheme.repartitions", float64(t.Repartitions))
	m.set(perLayer, "scheme.inversions", float64(t.Inversions))
	m.set(perLayer, "scheme.salvages", float64(t.Salvages))
	m.set(perLayer, "sim.trials", float64(trials))
	m.set(perLayer, "sim.page_deaths", float64(t.PageDeaths))
	m.set(perLayer, "sim.block_deaths", float64(t.BlockDeaths))
}

// ---- simulation workloads ----

func (in *simInstance) layers(m metricSet, _ *tracer) {
	var tot obs.Totals
	var trials int64
	var all, eligible time.Duration
	callS := make(map[string]float64)
	var callMs []float64
	for _, r := range in.results {
		tot = tot.Plus(r.counts)
		trials += int64(r.call.cfg.Trials)
		all += r.dur
		if r.call.eligible() {
			eligible += r.dur
		}
		callS[family(r.call.f.Name())] += r.dur.Seconds()
		callMs = append(callMs, float64(r.dur)/float64(time.Millisecond))
	}
	setTotals(m, tot, trials)
	for _, f := range families {
		m.set(perLayer, "sim.call_s."+f, callS[f])
	}
	m.set(perLayer, "sim.sliced_eligible_share", eligible.Seconds()/all.Seconds())
	// Each call computes one unsharded result: what one engine shard
	// computes when a run is not split.
	m.set(perLayer, "engine.shard_compute_ms_p50", median(callMs))
}

func (in *simInstance) work() []workCount {
	var out []workCount
	for _, r := range in.results {
		c := r.call
		blocks := int64(c.cfg.Trials)
		if !c.curve {
			blocks *= int64(c.cfg.BlocksPerPage())
		}
		out = append(out, workCount{
			key:    probeKey{c.f.Name(), c.cfg.BlockBits, c.kind()},
			writes: r.counts.Writes,
			blocks: blocks,
		})
	}
	return out
}

// maxProbeShards bounds the shard files the engine probe writes and loads.
const maxProbeShards = 40

// probeInputs replays one scalar trial per roster entry (twenty per
// entry for fault injection, whose trials are short), and probes the
// engine with the shards a cached run of round 0 would persist.
func (in *simInstance) probeInputs() ([]probeTrial, []*engine.Shard, error) {
	kind := "pages"
	n := 1
	if in.spec.curve {
		kind, n = "curve", 20
	}
	var trials []probeTrial
	for _, f := range in.roster {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s/%d/%d", f.Name(), f.BlockBits(), i)
			trials = append(trials, probeTrial{f: f, kind: kind, pageBytes: 4096,
				meanLife: in.spec.meanLife, seed: deriveSeed(in.seed, -2, key)})
		}
	}
	var shards []*engine.Shard
	for _, r := range in.results {
		if r.round != 0 || len(shards) == maxProbeShards {
			continue
		}
		c := r.call
		var cp engine.CurveParams
		if c.curve {
			cp = engine.CurveParams{MaxFaults: fig8MaxFaults, WritesPerStep: fig8WritesPerStep, Bias: fig8Bias}
		}
		hash := engine.ConfigHash(c.cfg, c.kind(), cp)
		lo, hi := c.cfg.TrialOffset, c.cfg.TrialOffset+c.cfg.Trials
		shards = append(shards, &engine.Shard{
			Schema:      engine.ShardSchema,
			Key:         engine.ShardKey(hash, c.f.Name(), lo, hi, obs.GitSHA()),
			ConfigHash:  hash,
			Scheme:      c.f.Name(),
			Kind:        c.kind(),
			TrialLo:     lo,
			TrialHi:     hi,
			CodeVersion: obs.GitSHA(),
			CreatedAt:   r.start.UTC(),
			Pages:       r.pages,
			Dead:        r.dead,
			Counters:    r.counts,
		})
	}
	return trials, shards, nil
}

// ---- service workloads ----

func (in *svcInstance) layers(m metricSet, tr *tracer) {
	var tot obs.Totals
	var trials int64
	jobs := 0
	for _, j := range in.jobs {
		if j.err != nil {
			continue
		}
		jobs++
		if !j.repeat {
			for _, t := range j.counters {
				tot = tot.Plus(t)
			}
			trials += int64(j.spec.Trials)
		}
	}
	setTotals(m, tot, trials)

	// Shard computations, from the engines' own records.
	callS := make(map[string]float64)
	var shardMs []float64
	var leaseCompute float64
	workerHits, workerComputed := 0, 0
	for _, r := range tr.logs.records() {
		switch r.Msg {
		case "shard computed":
			callS[family(r.str("scheme"))] += r.dur("elapsed").Seconds()
			shardMs = append(shardMs, float64(r.dur("elapsed"))/float64(time.Millisecond))
		case "lease computed":
			leaseCompute += r.dur("elapsed").Seconds()
			if r.boolean("cache_hit") {
				workerHits++
			} else {
				workerComputed++
			}
		}
	}
	for _, f := range families {
		m.set(perLayer, "sim.call_s."+f, callS[f])
	}
	if len(shardMs) > 0 {
		m.set(perLayer, "engine.shard_compute_ms_p50", median(shardMs))
	}
	// Service shards hold at most a quarter of a job's 64 trials, below
	// the full 64-trial groups the bit-sliced path needs, so
	// sim.sliced_eligible_share stays zero.

	// Span self times as shares of total job latency.
	spans := tr.spans.spans()
	self := selfByName(spans)
	var jobNs float64
	for _, s := range spans {
		if s.Name == "job" {
			jobNs += float64(s.dur())
		}
	}
	if jobNs > 0 {
		for metric, name := range map[string]string{
			"serve.submit_share":   "serve.submit",
			"serve.queue_share":    "serve.queue",
			"serve.run_self_share": "serve.run",
			"engine.shard_share":   "engine.shard",
			"serve.poll_lag_share": "serve.poll_lag",
			"serve.result_share":   "serve.result",
		} {
			m.set(perLayer, metric, float64(self[name])/jobNs)
		}
	}

	// Counters scraped from /metrics before and after the phase.
	b, a := in.before, in.after
	hits := promDelta(b, a, "aegis_shard_cache_hits_total")
	misses := promDelta(b, a, "aegis_shard_cache_misses_total")
	m.set(perLayer, "engine.cache_hits", hits)
	m.set(perLayer, "engine.cache_misses", misses)
	m.set(perLayer, "engine.shards_persisted", promDelta(b, a, "aegis_shard_persisted_total"))
	if hits+misses > 0 {
		m.set(perLayer, "engine.hit_ratio", hits/(hits+misses))
	}
	m.set(perLayer, "serve.http_requests",
		promDelta(b, a, "aegis_http_requests_total")-promDelta(b, a, "aegis_http_requests_total", `route="/metrics"`))
	if jobs > 0 {
		polls := promDelta(b, a, "aegis_http_requests_total", `route="/v1/jobs/{id}"`, `method="GET"`)
		m.set(perLayer, "serve.polls_per_job", polls/float64(jobs))
	}
	retries := 0
	for _, j := range in.jobs {
		retries += j.retries
	}
	m.set(perLayer, "serve.submit_retries", float64(retries))
	m.set(perLayer, "serve.journal_compactions", promDelta(b, a, "aegis_journal_compactions_total"))
	m.set(perLayer, "serve.journal_evicted_jobs", promDelta(b, a, "aegis_journal_evicted_jobs_total"))
	if fi, err := os.Stat(in.journal); err == nil {
		m.set(perLayer, "serve.journal_bytes", float64(fi.Size()))
	}
	m.set(perLayer, "cluster.leases_issued", promDelta(b, a, "aegis_cluster_leases_issued_total"))
	m.set(perLayer, "cluster.leases_stolen", promDelta(b, a, "aegis_cluster_leases_stolen_total"))
	m.set(perLayer, "cluster.leases_expired", promDelta(b, a, "aegis_cluster_leases_expired_total"))
	if rtt := promDelta(b, a, "aegis_cluster_shard_roundtrip_seconds_sum"); rtt > 0 {
		m.set(perLayer, "cluster.lease_overhead_share", 1-leaseCompute/rtt)
	}
	m.set(perLayer, "cluster.worker_shards_computed", float64(workerComputed))
	m.set(perLayer, "cluster.worker_cache_hits", float64(workerHits))
}

func (in *svcInstance) work() []workCount {
	var out []workCount
	for _, j := range in.jobs {
		if j.err != nil || j.repeat {
			continue
		}
		blocks := int64(j.spec.Trials)
		if j.spec.Kind == "pages" {
			blocks *= int64(j.spec.PageBytes * 8 / 512)
		}
		for name, t := range j.counters {
			out = append(out, workCount{key: probeKey{name, 512, j.spec.Kind}, writes: t.Writes, blocks: blocks})
		}
	}
	return out
}

// probeInputs replays scalar trials of every (kind, scheme) pair of the
// job mix, and probes the engine with the phase's own shard files.
func (in *svcInstance) probeInputs() ([]probeTrial, []*engine.Shard, error) {
	var trials []probeTrial
	for _, kind := range []string{"blocks", "pages", "curve"} {
		for _, scheme := range svcSchemes {
			req := serve.JobRequest{Kind: kind, Scheme: scheme, Preset: "quick"}
			if kind == "pages" {
				req.PageBytes = 512
			}
			f, err := req.Normalize()
			if err != nil {
				return nil, nil, err
			}
			for i := 0; i < 4; i++ {
				trials = append(trials, probeTrial{f: f, kind: kind, pageBytes: req.PageBytes,
					meanLife: req.SimConfig().MeanLife, seed: deriveSeed(in.seed, -2, fmt.Sprintf("%s/%s/%d", kind, scheme, i))})
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(in.dir, "cache", "*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	step := len(paths)/maxProbeShards + 1
	var shards []*engine.Shard
	for i := 0; i < len(paths); i += step {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			return nil, nil, err
		}
		s := new(engine.Shard)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", paths[i], err)
		}
		shards = append(shards, s)
	}
	return trials, shards, nil
}

// scrape reads the daemon's /metrics.
func (in *svcInstance) scrape() (promSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	return scrapeMetrics(ctx, hc, in.base)
}
