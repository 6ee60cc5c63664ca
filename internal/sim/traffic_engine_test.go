package sim_test

import (
	"testing"

	"aegis/internal/aegisrw"
	"aegis/internal/core"
	"aegis/internal/engine"
	"aegis/internal/failcache"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// The traffic probe runs through the shard engine (engine.TrafficCurve
// over sim.TrafficSums), so these tests drive it there, at three shards.

func trafficCfg(trials int) sim.Config {
	return sim.Config{BlockBits: 512, PageBytes: 4096, MeanLife: 300, CoV: 0.25, Trials: trials, Seed: 1}
}

func trafficCurve(t *testing.T, f scheme.Factory, cfg sim.Config, maxFaults, writesPerStep int) []sim.TrafficPoint {
	t.Helper()
	pts, err := (&engine.Engine{Shards: 3}).TrafficCurve(f, cfg, maxFaults, writesPerStep)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestTrafficCurveCacheLessVsCached(t *testing.T) {
	cfg := trafficCfg(30)
	base := trafficCurve(t, core.MustFactory(512, 61), cfg, 10, 6)
	rw := trafficCurve(t, aegisrw.MustRWFactory(512, 61, failcache.Perfect{}), cfg, 10, 6)
	if len(base) != 10 || len(rw) != 10 {
		t.Fatalf("curve lengths %d, %d", len(base), len(rw))
	}
	// Cache-less Aegis pays extra inversion writes once faults exist.
	if base[0].ExtraWrites <= 0 {
		t.Fatalf("base extra writes at 1 fault = %v, want > 0", base[0].ExtraWrites)
	}
	if base[5].ExtraWrites <= base[0].ExtraWrites/2 {
		t.Fatalf("base extra writes should grow with faults: %v -> %v", base[0].ExtraWrites, base[5].ExtraWrites)
	}
	// Aegis-rw with a perfect cache plans in one pass.
	for i, pt := range rw {
		if pt.ExtraWrites != 0 {
			t.Fatalf("rw extra writes at %d faults = %v, want 0", i+1, pt.ExtraWrites)
		}
	}
	// Verification reads accompany every physical write.
	if base[3].VerifyReads < 1 {
		t.Fatalf("verify reads = %v, want ≥ 1", base[3].VerifyReads)
	}
}

func TestTrafficCurveSkipsNonReporters(t *testing.T) {
	cfg := trafficCfg(4)
	// scheme.None does not implement OpReporter; the curve must come
	// back all zeros rather than panic.
	pts := trafficCurve(t, scheme.NoneFactory{Bits: 512}, cfg, 5, 3)
	for _, pt := range pts {
		if pt.ExtraWrites != 0 || pt.VerifyReads != 0 {
			t.Fatalf("non-reporter produced stats: %+v", pt)
		}
	}
}
