package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aegis/internal/obs"
	"aegis/internal/sim"
)

// trafficProbe is the probe the traffic tests run: 6 faults, 4 writes
// per step.
var trafficProbe = CurveParams{MaxFaults: 6, WritesPerStep: 4}

// trafficJSON runs the traffic probe through e and returns the merged
// sums and the run's counters and histograms, each as JSON.
func trafficJSON(t *testing.T, e *Engine) (sums, observed string) {
	t.Helper()
	cfg := testConfig(12)
	cfg.Obs = obs.NewRegistry()
	s, err := e.payload(testFactory(), cfg, KindTraffic, trafficProbe)
	if err != nil {
		t.Fatal(err)
	}
	name := testFactory().Name()
	return mustJSON(t, s.Traffic), mustJSON(t, []any{cfg.Obs.Snapshot()[name], cfg.Obs.HistSnapshot()[name]})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTrafficShardsInvariant: the traffic sums, counters and histograms
// are byte-identical at Workers 1 and 8 and at 1 and 3 shards, and the
// sums equal a direct unsharded sim.TrafficSums run.
func TestTrafficShardsInvariant(t *testing.T) {
	refSums, refObs := trafficJSON(t, nil)
	direct := mustJSON(t, sim.TrafficSums(testFactory(), testConfig(12), trafficProbe.MaxFaults, trafficProbe.WritesPerStep))
	if refSums != direct {
		t.Fatalf("engine sums %s, direct sums %s", refSums, direct)
	}
	for _, e := range []*Engine{
		{Shards: 1, Workers: 1, CacheDir: t.TempDir()},
		{Shards: 1, Workers: 8, CacheDir: t.TempDir()},
		{Shards: 3, Workers: 1},
		{Shards: 3, Workers: 8},
	} {
		if sums, observed := trafficJSON(t, e); sums != refSums || observed != refObs {
			t.Errorf("Shards=%d Workers=%d diverged from the direct run:\n%s %s\nvs\n%s %s", e.Shards, e.Workers, sums, observed, refSums, refObs)
		}
	}
	pts, err := (&Engine{Shards: 3}).TrafficCurve(testFactory(), testConfig(12), trafficProbe.MaxFaults, trafficProbe.WritesPerStep)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.TrafficPoints(sim.TrafficSums(testFactory(), testConfig(12), trafficProbe.MaxFaults, trafficProbe.WritesPerStep))
	if !reflect.DeepEqual(pts, want) || len(pts) != trafficProbe.MaxFaults {
		t.Fatalf("sharded TrafficCurve %+v, want %+v", pts, want)
	}
}

// readShards returns every shard file in dir by name.
func readShards(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = string(data)
	}
	return files
}

// TestTrafficCachedRerun: a cold traffic run persists every shard, and
// a rerun loads each of them from the cache, leaves the files as they
// were and returns the same bytes.
func TestTrafficCachedRerun(t *testing.T) {
	dir := t.TempDir()
	e := &Engine{Shards: 3, CacheDir: dir, Resume: true}
	run := func() (string, obs.ShardTotals) {
		reg := obs.NewRegistry()
		cfg := testConfig(12)
		cfg.Obs = reg
		s, err := e.payload(testFactory(), cfg, KindTraffic, trafficProbe)
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, s.Traffic), reg.Shards().Totals()
	}
	cold, coldTraffic := run()
	files := readShards(t, dir)
	warm, warmTraffic := run()
	if coldTraffic.CacheMisses != 3 || coldTraffic.Persisted != 3 || len(files) != 3 {
		t.Fatalf("cold run: %+v, %d files", coldTraffic, len(files))
	}
	if warmTraffic.CacheHits != 3 || warmTraffic.CacheMisses != 0 {
		t.Fatalf("rerun: %+v", warmTraffic)
	}
	if cold != warm {
		t.Fatalf("cached rerun diverged: %s vs %s", warm, cold)
	}
	if !reflect.DeepEqual(readShards(t, dir), files) {
		t.Fatal("rerun changed the shard files")
	}
}

// TestTrafficConfigHashCoversProbe: traffic runs that differ only in
// the probe's fault count or writes per step address different shards.
func TestTrafficConfigHashCoversProbe(t *testing.T) {
	cfg := testConfig(12)
	base := ConfigHash(cfg, KindTraffic, trafficProbe)
	moreFaults := trafficProbe
	moreFaults.MaxFaults++
	moreWrites := trafficProbe
	moreWrites.WritesPerStep++
	if ConfigHash(cfg, KindTraffic, moreFaults) == base {
		t.Error("traffic config hash ignores MaxFaults")
	}
	if ConfigHash(cfg, KindTraffic, moreWrites) == base {
		t.Error("traffic config hash ignores WritesPerStep")
	}
	if ConfigHash(cfg, KindCurve, trafficProbe) == base {
		t.Error("traffic and curve runs share a config hash")
	}
}

// TestTrafficShortPayloadRefused: a cached traffic shard whose sums do
// not cover every fault count of the probe is refused, not merged.
func TestTrafficShortPayloadRefused(t *testing.T) {
	dir := t.TempDir()
	e := &Engine{Shards: 3, CacheDir: dir, Resume: true}
	if _, err := e.payload(testFactory(), testConfig(12), KindTraffic, trafficProbe); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) != 3 {
		t.Fatalf("shard files %v, %v", paths, err)
	}
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	var s Shard
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	s.Traffic = s.Traffic[:trafficProbe.MaxFaults-2]
	if _, err := WriteShard(dir, &s); err != nil {
		t.Fatal(err)
	}
	_, err = e.payload(testFactory(), testConfig(12), KindTraffic, trafficProbe)
	if err == nil || !strings.Contains(err.Error(), "holds 4 counts, want 7") {
		t.Fatalf("short traffic payload: err = %v, want a refusal", err)
	}
}
