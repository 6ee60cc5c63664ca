// Package obs is the observability layer of the reproduction harness:
// cheap atomic counters and log-bucket histograms aggregated per scheme
// (obs.go, histogram.go), a registry the simulation engine drains
// per-trial operation statistics into, a sampled decision-event trace
// (events.go, aegis.events/v1 JSONL), live run telemetry (progress.go),
// and a run-manifest format (manifest.go, aegis.run-manifest/v3) that
// records every experiment run — config, seed, environment, wall/CPU
// time, counter totals, histograms and result rows — as JSON.
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
// into the shared Registry once per simulated block or page, so the
// atomic traffic is O(trials), not O(writes), and the overhead on a full
// harness run is well under 5 %.
package obs

import (
	"sort"
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

// SchemeCounters aggregates one scheme configuration's operation counts
// across every simulated block and page of a run.
type SchemeCounters struct {
	// Writes (scheme.OpStats.Requests), RawWrites, VerifyReads,
	// Inversions, Repartitions and Salvages sum the scheme.OpStats
	// counters of every simulated block; the OpStats field comments
	// define them.
	Writes       Counter
	RawWrites    Counter
	VerifyReads  Counter
	Inversions   Counter
	Repartitions Counter
	Salvages     Counter
	// BitWrites is the number of cell programming pulses the simulated
	// blocks absorbed, inversion rewrites included — the raw wear the
	// substrate saw, one level below RawWrites.
	BitWrites Counter
	// BlockDeaths is the number of simulated blocks that became
	// unrecoverable.
	BlockDeaths Counter
	// PageDeaths is the number of simulated pages lost to their first
	// unrecoverable block.
	PageDeaths Counter
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

// ShardCounters tallies the shard engine's cache traffic for one run:
// how many shards were served from the content-addressed cache, how
// many had to be computed, and how many were persisted.  Unlike
// SchemeCounters these are run-global, not per-scheme.
type ShardCounters struct {
	// CacheHits is the number of shards loaded from the cache.
	CacheHits Counter
	// CacheMisses is the number of shards that had to be computed
	// (cache disabled, entry absent, or entry unreadable).
	CacheMisses Counter
	// Persisted is the number of shard files written.
	Persisted Counter
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

// Registry maps scheme names to their counters and histograms for one
// harness run.  The zero value is not usable; call NewRegistry.
type Registry struct {
	mu sync.Mutex
	m  map[string]*SchemeCounters
	h  map[string]*SchemeHistograms

	shards ShardCounters
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		m: make(map[string]*SchemeCounters),
		h: make(map[string]*SchemeHistograms),
	}
}

// Scheme returns the counters registered under name, creating them on
// first use.  The returned pointer is stable for the registry's life, so
// callers may cache it across trials.
func (r *Registry) Scheme(name string) *SchemeCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc, ok := r.m[name]
	if !ok {
		sc = &SchemeCounters{}
		r.m[name] = sc
	}
	return sc
}

// Histograms returns the histogram set registered under name, creating
// it on first use.  Like Scheme, the returned pointer is stable for the
// registry's life.
func (r *Registry) Histograms(name string) *SchemeHistograms {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, ok := r.h[name]
	if !ok {
		sh = &SchemeHistograms{}
		r.h[name] = sh
	}
	return sh
}

// Shards returns the run-global shard-cache counters.  The pointer is
// stable for the registry's life.
func (r *Registry) Shards() *ShardCounters { return &r.shards }

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
// job's cache traffic into one service-lifetime registry for /metrics.
func (r *Registry) AddShardTotals(t ShardTotals) {
	r.shards.CacheHits.Add(t.CacheHits)
	r.shards.CacheMisses.Add(t.CacheMisses)
	r.shards.Persisted.Add(t.Persisted)
}

// Names returns the registered scheme names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the current totals of every registered scheme.  The
// map is freshly allocated and safe to serialize while simulations keep
// running.
func (r *Registry) Snapshot() map[string]Totals {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Totals, len(r.m))
	for name, sc := range r.m {
		out[name] = sc.Totals()
	}
	return out
}

// HistSnapshot returns the current histogram totals of every scheme
// with registered histograms.  Like Snapshot, the map is freshly
// allocated and safe to serialize while simulations keep running.
func (r *Registry) HistSnapshot() map[string]HistSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistSnapshot, len(r.h))
	for name, sh := range r.h {
		out[name] = sh.Totals()
	}
	return out
}

// Reset drops every registered scheme.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m = make(map[string]*SchemeCounters)
	r.h = make(map[string]*SchemeHistograms)
}
