package obs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestHistogramMergeEquivalence: merging a snapshot into a fresh
// histogram reproduces observing the values directly — the property the
// shard cache relies on to replay persisted distributions.
func TestHistogramMergeEquivalence(t *testing.T) {
	values := []int64{0, 1, 2, 3, 17, 1000, 1 << 40, 5, 5, 5}
	var direct Histogram
	for _, v := range values {
		direct.Observe(v)
	}

	var a, b Histogram
	for i, v := range values {
		if i < 4 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	var merged Histogram
	merged.Merge(a.Totals())
	merged.Merge(b.Totals())
	if !reflect.DeepEqual(merged.Totals(), direct.Totals()) {
		t.Fatalf("merge diverged:\nmerged %+v\ndirect %+v", merged.Totals(), direct.Totals())
	}

	// Merging an empty snapshot is a no-op, including min/max sentinels.
	var empty Histogram
	merged.Merge(empty.Totals())
	if !reflect.DeepEqual(merged.Totals(), direct.Totals()) {
		t.Fatal("empty merge changed totals")
	}
}

// TestHistSnapshotPlusEquivalence mirrors the same property for the
// pure-value Plus path the shard merger uses.
func TestHistSnapshotPlusEquivalence(t *testing.T) {
	var direct, a, b SchemeHistograms
	for i := int64(0); i < 20; i++ {
		direct.Lifetime.Observe(i * 3)
		direct.ExtraWrites.Observe(i)
		h := &a
		if i >= 8 {
			h = &b
		}
		h.Lifetime.Observe(i * 3)
		h.ExtraWrites.Observe(i)
	}
	sum := a.Totals().Plus(b.Totals())
	if !reflect.DeepEqual(sum, direct.Totals()) {
		t.Fatalf("Plus diverged:\nsum %+v\ndirect %+v", sum, direct.Totals())
	}
	// Plus with the zero snapshot is the identity.
	if !reflect.DeepEqual(sum.Plus(HistSnapshot{}), sum) {
		t.Fatal("Plus with zero snapshot changed the result")
	}
	if !reflect.DeepEqual((HistSnapshot{}).Plus(sum), sum) {
		t.Fatal("zero snapshot Plus changed the result")
	}
}

// TestRegistryAddTotalsAndHist: folding snapshots into a registry equals
// having counted there directly.
func TestRegistryAddTotalsAndHist(t *testing.T) {
	direct := NewRegistry()
	direct.Scheme("A").Writes.Add(10)
	direct.Scheme("A").Salvages.Add(3)
	direct.Histograms("A").Lifetime.Observe(42)

	replayed := NewRegistry()
	replayed.AddTotals("A", Totals{Writes: 4, Salvages: 1})
	replayed.AddTotals("A", Totals{Writes: 6, Salvages: 2})
	var h SchemeHistograms
	h.Lifetime.Observe(42)
	replayed.AddHist("A", h.Totals())

	if !reflect.DeepEqual(replayed.Snapshot(), direct.Snapshot()) {
		t.Fatalf("AddTotals diverged:\nreplayed %+v\ndirect %+v", replayed.Snapshot(), direct.Snapshot())
	}
	if !reflect.DeepEqual(replayed.HistSnapshot(), direct.HistSnapshot()) {
		t.Fatalf("AddHist diverged:\nreplayed %+v\ndirect %+v", replayed.HistSnapshot(), direct.HistSnapshot())
	}
}

func TestShardCounters(t *testing.T) {
	r := NewRegistry()
	r.Shards().CacheHits.Add(2)
	r.Shards().CacheMisses.Inc()
	r.Shards().Persisted.Inc()
	got := r.Shards().Totals()
	want := ShardTotals{CacheHits: 2, CacheMisses: 1, Persisted: 1}
	if got != want {
		t.Fatalf("shard totals = %+v, want %+v", got, want)
	}
}

func TestProgressCacheTally(t *testing.T) {
	p := NewProgress()
	p.SetExperiment("fig10")
	p.AddTotal(100)
	p.Done(40)
	// Without cache traffic the line stays in its pre-engine shape.
	if line := p.Snapshot().String(); strings.Contains(line, "cache") {
		t.Fatalf("cache tally shown with no traffic: %q", line)
	}
	p.CacheHit(3)
	p.CacheMiss(1)
	snap := p.Snapshot()
	if snap.CacheHits != 3 || snap.CacheMisses != 1 {
		t.Fatalf("snapshot cache = %d/%d", snap.CacheHits, snap.CacheMisses)
	}
	if line := snap.String(); !strings.Contains(line, "cache 3/4 shards") {
		t.Fatalf("progress line missing cache tally: %q", line)
	}
	// Nil receiver stays safe.
	var nilP *Progress
	nilP.CacheHit(1)
	nilP.CacheMiss(1)
}

func TestManifestShardingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest("fig10")
	if m.Schema != ManifestSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	m.Sharding = &ShardingInfo{
		ShardSchema: "aegis.shard/v1",
		Shards:      8,
		CacheDir:    "/tmp/cache",
		Resume:      true,
		CacheHits:   5,
		CacheMisses: 3,
		Persisted:   3,
	}
	path := filepath.Join(dir, "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sharding, m.Sharding) {
		t.Fatalf("sharding round trip: %+v vs %+v", got.Sharding, m.Sharding)
	}

	// Unsharded manifests omit the block entirely.
	m2 := NewManifest("table1")
	data, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "sharding") {
		t.Fatal("unsharded manifest serialized a sharding block")
	}
}
