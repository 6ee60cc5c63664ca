package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/engine"
	"aegis/internal/freep"
	"aegis/internal/obs"
	"aegis/internal/payg"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// pageFactories returns one FREE-p and one PAYG page configuration.
func pageFactories(t *testing.T) []scheme.Factory {
	t.Helper()
	fp, err := freep.NewFactory(ecp.MustFactory(512, 6), 2)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := payg.NewFactory(512, 1, 6, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	return []scheme.Factory{fp, pg}
}

func pagesJSON(t *testing.T, eng *engine.Engine, f scheme.Factory, cfg sim.Config) []byte {
	t.Helper()
	rs, err := eng.Pages(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPageFactoriesWorkersInvariant runs FREE-p and PAYG pages through
// the shard engine serially and on 8 shard workers: the results,
// page budgets included, must be byte-identical, and a resumed run
// must load the same bytes from the shard cache.
func TestPageFactoriesWorkersInvariant(t *testing.T) {
	cfg := sim.Config{BlockBits: 512, PageBytes: 1024, MeanLife: 300, CoV: 0.25, Trials: 7, Seed: 11}
	for _, f := range pageFactories(t) {
		dir := t.TempDir()
		serial := pagesJSON(t, &engine.Engine{Shards: 3, Workers: 1, CacheDir: dir}, f, cfg)
		parallel := pagesJSON(t, &engine.Engine{Shards: 3, Workers: 8}, f, cfg)
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("%s: workers=8 diverged from workers=1\nserial:   %s\nparallel: %s", f.Name(), serial, parallel)
		}
		if !bytes.Contains(serial, []byte(`"spent"`)) {
			t.Fatalf("%s: no page spent any budget: %s", f.Name(), serial)
		}
		rcfg := cfg
		rcfg.Obs = obs.NewRegistry()
		resumed := pagesJSON(t, &engine.Engine{Shards: 3, CacheDir: dir, Resume: true}, f, rcfg)
		if !bytes.Equal(serial, resumed) {
			t.Fatalf("%s: resumed run diverged\ncomputed: %s\nresumed:  %s", f.Name(), serial, resumed)
		}
		if hits := rcfg.Obs.Shards().CacheHits.Load(); hits != 3 {
			t.Fatalf("%s: resumed run loaded %d of 3 shards from the cache", f.Name(), hits)
		}
	}
}
