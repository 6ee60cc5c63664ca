package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric.  BENCHMARK.json at the repository
// root lists the same names, units and directions (plus the regression
// bound of each end-to-end metric); TestBenchmarkJSONMatchesDefs keeps
// the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end metrics only
}

// endToEnd is what a user of the simulator or the daemon sees.  Every
// workload reports every metric: a "job" is one simulation request — a
// sim.Pages or sim.FailureCounts call on the simulation workloads, one
// aegisd job (submit to verified result) on the service workloads.  The
// bounds are as wide as the run-to-run spread of a shared 2-vCPU host
// requires (bench/README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "job_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "job_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_job", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "sim_writes_per_s", unit: "writes/s", better: "higher", bound: 0.25},
}

// families groups scheme factories for the per-family layer metrics.
// "none" (the unprotected baseline) runs only in fig5-pages and keeps no
// operation counts, so it has no per-family metric.
var families = []string{"ecp", "safer", "rdis", "aegis"}

// perLayer comes from the traced run.  Layer names are the repository's
// module names; bench/README.md says which end-to-end metric each should
// move, on which workload.  A quantity that exists only on some workloads
// is a count or a share, never a time, so no time metric reads a
// constant zero.
var perLayer = func() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{name: name, unit: unit, better: better} }
	perFamily := func(prefix, unit string) []metricDef {
		var out []metricDef
		for _, f := range families {
			out = append(out, d(prefix+f, unit, "lower"))
		}
		return out
	}
	defs := []metricDef{
		d("xrand.fill_ns", "ns", "lower"),
		d("xrand.seed_ns", "ns", "lower"),
		d("pcm.write_ns", "ns", "lower"),
		d("pcm.verify_ns", "ns", "lower"),
		d("pcm.reset_ns", "ns", "lower"),
		d("pcm.raw_writes", "count", "lower"),
		d("pcm.bit_writes", "count", "lower"),
		d("scheme.writes", "count", "higher"),
		d("scheme.raw_per_write", "ratio", "lower"),
		d("scheme.verify_per_write", "ratio", "lower"),
		d("scheme.repartitions", "count", "lower"),
		d("scheme.inversions", "count", "lower"),
		d("scheme.salvages", "count", "lower"),
	}
	defs = append(defs, perFamily("scheme.write_ns.", "ns")...)
	defs = append(defs, perFamily("scheme.self_ns.", "ns")...)
	defs = append(defs,
		d("sim.trials", "count", "higher"),
		d("sim.page_deaths", "count", "higher"),
		d("sim.block_deaths", "count", "higher"),
	)
	defs = append(defs, perFamily("sim.call_s.", "s")...)
	return append(defs,
		d("sim.sliced_eligible_share", "ratio", "lower"),
		d("engine.cache_hits", "count", "higher"),
		d("engine.cache_misses", "count", "lower"),
		d("engine.shards_persisted", "count", "lower"),
		d("engine.hit_ratio", "ratio", "higher"),
		d("engine.shard_compute_ms_p50", "ms", "lower"),
		d("engine.load_shard_ms_p50", "ms", "lower"),
		d("engine.write_shard_ms_p50", "ms", "lower"),
		d("engine.shard_share", "ratio", "lower"),
		d("serve.submit_share", "ratio", "lower"),
		d("serve.queue_share", "ratio", "lower"),
		d("serve.run_self_share", "ratio", "lower"),
		d("serve.poll_lag_share", "ratio", "lower"),
		d("serve.result_share", "ratio", "lower"),
		d("serve.polls_per_job", "ratio", "lower"),
		d("serve.http_requests", "count", "lower"),
		d("serve.submit_retries", "count", "lower"),
		d("serve.journal_compactions", "count", "lower"),
		d("serve.journal_evicted_jobs", "count", "lower"),
		d("serve.journal_bytes", "bytes", "lower"),
		d("cluster.leases_issued", "count", "lower"),
		d("cluster.leases_stolen", "count", "lower"),
		d("cluster.leases_expired", "count", "lower"),
		d("cluster.lease_overhead_share", "ratio", "lower"),
		d("cluster.worker_shards_computed", "count", "higher"),
		d("cluster.worker_cache_hits", "count", "higher"),
		d("runtime.alloc_kb_per_job", "KB", "lower"),
		d("runtime.gc_cycles", "count", "lower"),
		d("runtime.gc_cpu_share", "ratio", "lower"),
		d("trace.overhead_share", "ratio", "lower"),
		d("attrib.explained_share", "ratio", "higher"),
		d("attrib.unexplained_s", "s", "lower"),
	)
}()

// metric is one measured value with its unit, the shape of every entry
// under "metrics" in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values by name; the unit comes from defs.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undefined metric " + name)
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.  xs need not be sorted; it is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of
// n sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// minBeyond is the fewest samples a reported tail percentile must have
// beyond it; a run with fewer fails rather than report the tail.
const minBeyond = 10

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }
