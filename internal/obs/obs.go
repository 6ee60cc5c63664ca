// Package obs is the observability layer of the reproduction harness:
// one metrics registry per run or daemon (obs.go, metrics.go) holding
// named counter, gauge and log-bucket histogram families (histogram.go)
// and rendering them in Prometheus text exposition (promtext.go); a
// sampled decision-event trace (events.go, aegis.events/v1 JSONL); live
// run telemetry (progress.go); and a run-manifest format (manifest.go,
// aegis.run-manifest/v3) that records every experiment run — config,
// seed, environment, wall/CPU time, counter totals, histograms and
// result rows — as JSON.
//
// The counters answer the cost questions the paper discusses around
// Figure 8 ("intensive inversion writes") and that related stuck-at
// coding work (Kim & Kumar; Wachter-Zeh & Yaakobi) evaluates directly:
// how many physical writes, verification re-reads, inversion rewrites,
// re-partition searches and salvaged requests each scheme needed, and
// how many blocks and pages it lost.
//
// Design: schemes keep their existing per-instance scheme.OpStats
// bookkeeping (plain int64s on the hot path); internal/sim drains those
// into the per-scheme series of the run's Registry once per simulated
// block or page, so the atomic traffic is O(trials), not O(writes), and
// the overhead on a full harness run is well under 5 %.  The same
// Registry carries every other family a binary exports, so /metrics
// renders from it alone.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is an atomic event counter safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// SchemeCounters is the view of one scheme configuration's operation
// counts across every simulated block and page of a run: each field is
// the scheme's series of one aegis_scheme_*_total family (Registry.Scheme).
type SchemeCounters struct {
	// Writes (scheme.OpStats.Requests), RawWrites, VerifyReads,
	// Inversions, Repartitions and Salvages sum the scheme.OpStats
	// counters of every simulated block; the OpStats field comments
	// define them.
	Writes       *Counter
	RawWrites    *Counter
	VerifyReads  *Counter
	Inversions   *Counter
	Repartitions *Counter
	Salvages     *Counter
	// BitWrites is the number of cell programming pulses the simulated
	// blocks absorbed, inversion rewrites included — the raw wear the
	// substrate saw, one level below RawWrites.
	BitWrites *Counter
	// BlockDeaths is the number of simulated blocks that became
	// unrecoverable.
	BlockDeaths *Counter
	// PageDeaths is the number of simulated pages lost to their first
	// unrecoverable block.
	PageDeaths *Counter
}

// Totals is the plain-value snapshot of SchemeCounters, the form the run
// manifest serializes.
type Totals struct {
	Writes       int64 `json:"writes"`
	RawWrites    int64 `json:"raw_writes"`
	VerifyReads  int64 `json:"verify_reads"`
	Inversions   int64 `json:"inversions"`
	Repartitions int64 `json:"repartitions"`
	Salvages     int64 `json:"salvages"`
	BitWrites    int64 `json:"bit_writes"`
	BlockDeaths  int64 `json:"block_deaths"`
	PageDeaths   int64 `json:"page_deaths"`
}

// Totals snapshots the counters.
func (c *SchemeCounters) Totals() Totals {
	return Totals{
		Writes:       c.Writes.Load(),
		RawWrites:    c.RawWrites.Load(),
		VerifyReads:  c.VerifyReads.Load(),
		Inversions:   c.Inversions.Load(),
		Repartitions: c.Repartitions.Load(),
		Salvages:     c.Salvages.Load(),
		BitWrites:    c.BitWrites.Load(),
		BlockDeaths:  c.BlockDeaths.Load(),
		PageDeaths:   c.PageDeaths.Load(),
	}
}

// Plus returns the element-wise sum of two snapshots.
func (t Totals) Plus(u Totals) Totals {
	return Totals{
		Writes:       t.Writes + u.Writes,
		RawWrites:    t.RawWrites + u.RawWrites,
		VerifyReads:  t.VerifyReads + u.VerifyReads,
		Inversions:   t.Inversions + u.Inversions,
		Repartitions: t.Repartitions + u.Repartitions,
		Salvages:     t.Salvages + u.Salvages,
		BitWrites:    t.BitWrites + u.BitWrites,
		BlockDeaths:  t.BlockDeaths + u.BlockDeaths,
		PageDeaths:   t.PageDeaths + u.PageDeaths,
	}
}

// ShardCounters is the view of the shard engine's cache traffic for one
// run: how many shards were served from the content-addressed cache, how
// many had to be computed, and how many were persisted.  Unlike
// SchemeCounters these are run-global, not per-scheme; each field is
// the one series of an aegis_shard_*_total family (Registry.Shards).
type ShardCounters struct {
	// CacheHits is the number of shards loaded from the cache.
	CacheHits *Counter
	// CacheMisses is the number of shards that had to be computed
	// (cache disabled, entry absent, or entry unreadable).
	CacheMisses *Counter
	// Persisted is the number of shard files written.
	Persisted *Counter
}

// ShardTotals is the plain-value snapshot of ShardCounters.
type ShardTotals struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Persisted   int64 `json:"persisted"`
}

// Totals snapshots the counters.
func (c *ShardCounters) Totals() ShardTotals {
	return ShardTotals{
		CacheHits:   c.CacheHits.Load(),
		CacheMisses: c.CacheMisses.Load(),
		Persisted:   c.Persisted.Load(),
	}
}

// Registry is the metrics registry of one run or daemon: named metric
// families (metrics.go) plus the per-scheme and shard-cache views the
// simulation engine drains into, whose fields are series of those same
// families.  Registration methods are idempotent: asking for the same
// family name and label set returns the same instrument, so hot paths
// may re-register per request instead of caching the instrument.
// Registering one name with two different kinds is a programming error
// and panics.  The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// views guards the view caches below.  It is taken before mu, never
	// after, since building a view registers its series.
	views   sync.Mutex
	schemes map[string]*SchemeCounters
	hists   map[string]*SchemeHistograms
	shards  *ShardCounters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		schemes:  make(map[string]*SchemeCounters),
		hists:    make(map[string]*SchemeHistograms),
	}
}

// Scheme returns the counters of the scheme configuration name, the
// {scheme=name} series of the aegis_scheme_*_total families, creating
// them on first use.  The returned pointer is stable for the registry's
// life, so callers may cache it across trials.
func (r *Registry) Scheme(name string) *SchemeCounters {
	r.views.Lock()
	defer r.views.Unlock()
	sc, ok := r.schemes[name]
	if !ok {
		l := L("scheme", name)
		c := func(family, help string) *Counter { return r.Counter(family, help, l) }
		sc = &SchemeCounters{
			Writes:       c("aegis_scheme_writes_total", "Logical write requests served, by scheme."),
			RawWrites:    c("aegis_scheme_raw_writes_total", "Physical block writes issued (inversion rewrites included), by scheme."),
			VerifyReads:  c("aegis_scheme_verify_reads_total", "Verification re-reads performed, by scheme."),
			Inversions:   c("aegis_scheme_inversions_total", "Physical writes issued with at least one region stored inverted, by scheme."),
			Repartitions: c("aegis_scheme_repartitions_total", "Partition-configuration changes, by scheme."),
			Salvages:     c("aegis_scheme_salvages_total", "Write requests recovered after at least one failed verification pass, by scheme."),
			BitWrites:    c("aegis_scheme_bit_writes_total", "Cell programming pulses absorbed by simulated blocks, by scheme."),
			BlockDeaths:  c("aegis_scheme_block_deaths_total", "Simulated blocks that became unrecoverable, by scheme."),
			PageDeaths:   c("aegis_scheme_page_deaths_total", "Simulated pages lost to their first unrecoverable block, by scheme."),
		}
		r.schemes[name] = sc
	}
	return sc
}

// Histograms returns the histogram set of the scheme configuration
// name, the {scheme=name} series of the aegis_scheme_* histogram
// families, creating them on first use.  Like Scheme, the returned
// pointer is stable for the registry's life.
func (r *Registry) Histograms(name string) *SchemeHistograms {
	r.views.Lock()
	defer r.views.Unlock()
	sh, ok := r.hists[name]
	if !ok {
		l := L("scheme", name)
		h := func(family, help string) *Histogram { return r.Histogram(family, help, 1, l) }
		sh = &SchemeHistograms{
			Lifetime:     h("aegis_scheme_lifetime_writes", "Per-trial lifetime in successful writes, by scheme."),
			Repartitions: h("aegis_scheme_repartitions_per_block", "Partition-configuration changes one block consumed over its life, by scheme."),
			SalvageDepth: h("aegis_scheme_salvage_depth_passes", "Verification passes a salvaged write needed before succeeding, by scheme."),
			ExtraWrites:  h("aegis_scheme_extra_writes_per_block", "Extra physical writes (beyond one per request) per block life, by scheme."),
		}
		r.hists[name] = sh
	}
	return sh
}

// Shards returns the run-global shard-cache counters, the series of the
// aegis_shard_*_total families, creating them on first use.  The
// pointer is stable for the registry's life.
func (r *Registry) Shards() *ShardCounters {
	r.views.Lock()
	defer r.views.Unlock()
	if r.shards == nil {
		r.shards = &ShardCounters{
			CacheHits:   r.Counter("aegis_shard_cache_hits_total", "Shards served from the content-addressed shard cache."),
			CacheMisses: r.Counter("aegis_shard_cache_misses_total", "Shards that had to be computed (absent, unreadable or cache disabled)."),
			Persisted:   r.Counter("aegis_shard_persisted_total", "Shard files written to the cache."),
		}
	}
	return r.shards
}

// AddTotals folds a counter snapshot into the live counters registered
// under name, creating them on first use.  The shard engine uses this
// to credit a cached shard's persisted operation counts to the run as
// if its trials had been simulated.
func (r *Registry) AddTotals(name string, t Totals) {
	sc := r.Scheme(name)
	sc.Writes.Add(t.Writes)
	sc.RawWrites.Add(t.RawWrites)
	sc.VerifyReads.Add(t.VerifyReads)
	sc.Inversions.Add(t.Inversions)
	sc.Repartitions.Add(t.Repartitions)
	sc.Salvages.Add(t.Salvages)
	sc.BitWrites.Add(t.BitWrites)
	sc.BlockDeaths.Add(t.BlockDeaths)
	sc.PageDeaths.Add(t.PageDeaths)
}

// AddHist folds a histogram snapshot into the live histograms
// registered under name, creating them on first use (see
// SchemeHistograms.Merge).
func (r *Registry) AddHist(name string, s HistSnapshot) {
	r.Histograms(name).Merge(s)
}

// AddShardTotals folds a shard-counter snapshot into the run-global
// shard counters.  The serving daemon uses this to accumulate every
// job's cache traffic into its service-lifetime registry.
func (r *Registry) AddShardTotals(t ShardTotals) {
	sh := r.Shards()
	sh.CacheHits.Add(t.CacheHits)
	sh.CacheMisses.Add(t.CacheMisses)
	sh.Persisted.Add(t.Persisted)
}

// Snapshot returns the current totals of every registered scheme.  The
// map is freshly allocated and safe to serialize while simulations keep
// running.
func (r *Registry) Snapshot() map[string]Totals {
	r.views.Lock()
	defer r.views.Unlock()
	out := make(map[string]Totals, len(r.schemes))
	for name, sc := range r.schemes {
		out[name] = sc.Totals()
	}
	return out
}

// HistSnapshot returns the current histogram totals of every scheme
// with registered histograms.  Like Snapshot, the map is freshly
// allocated and safe to serialize while simulations keep running.
func (r *Registry) HistSnapshot() map[string]HistSnapshot {
	r.views.Lock()
	defer r.views.Unlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for name, sh := range r.hists {
		out[name] = sh.Totals()
	}
	return out
}
