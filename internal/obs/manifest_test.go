package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleManifest() *Manifest {
	m := NewManifest("fig5")
	m.Preset = "quick"
	m.Seed = 7
	m.Workers = 4
	m.StartedAt = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	m.WallSeconds = 1.5
	m.CPUSeconds = 5.25
	m.Config = map[string]any{"mean_life": 600.0, "page_trials": 6.0}
	m.Counters = map[string]Totals{
		"Aegis 9x61": {Writes: 100, RawWrites: 140, VerifyReads: 140, Inversions: 30, Repartitions: 9, Salvages: 25, BlockDeaths: 4, PageDeaths: 2},
	}
	m.Tables = []Table{{
		Title:  "Figure 5",
		Header: []string{"scheme", "faults/page"},
		Rows:   [][]string{{"Aegis 9x61", "118.00"}},
		Notes:  []string{"scaled"},
	}}
	m.Series = []Series{{Name: "Aegis 9x61", Points: []Point{{X: 1, Y: 0.5}}}}
	sh := NewRegistry().Histograms("Aegis 9x61")
	sh.Lifetime.Observe(42)
	sh.Repartitions.Observe(3)
	sh.SalvageDepth.Observe(2)
	sh.ExtraWrites.Observe(7)
	m.Histograms = map[string]HistSnapshot{"Aegis 9x61": sh.Totals()}
	m.Events = &EventTraceInfo{
		Path: "out/fig5.events.jsonl", Schema: EventSchema,
		SampleEvery: 10, Written: 90, Dropped: 810,
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "sub", "fig5.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestSchemaStableKeys(t *testing.T) {
	data, err := sampleManifest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema", "experiment", "preset", "seed", "workers",
		"go_version", "goos", "goarch", "num_cpu", "git_sha",
		"started_at", "wall_seconds", "cpu_seconds", "config",
		"counters", "tables",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest JSON missing key %q", key)
		}
	}
	if !strings.Contains(string(data), ManifestSchema) {
		t.Fatalf("schema marker %q missing from encoded manifest", ManifestSchema)
	}
}

// TestLoadManifestRejectsOldSchemas: v1 and v2 manifests are no longer
// written by anything, so the loader refuses them like any other
// foreign schema.
func TestLoadManifestRejectsOldSchemas(t *testing.T) {
	for _, old := range []string{"aegis.run-manifest/v1", "aegis.run-manifest/v2"} {
		m := sampleManifest()
		m.Schema = old
		path := filepath.Join(t.TempDir(), "old.json")
		if err := m.Write(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), ManifestSchema) {
			t.Fatalf("schema %q: LoadManifest returned %v, want a refusal naming %q", old, err, ManifestSchema)
		}
	}
}

func TestManifestHistogramRoundTrip(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.Histograms["Aegis 9x61"]
	if !ok {
		t.Fatal("histograms lost in round trip")
	}
	if h.Lifetime.Max != 42 || h.SalvageDepth.Max != 2 || h.ExtraWrites.Sum != 7 {
		t.Fatalf("histogram values mangled: %+v", h)
	}
	if !reflect.DeepEqual(got.Events, m.Events) {
		t.Fatalf("event summary mangled: %+v", got.Events)
	}
}

func TestLoadManifestRejectsWrongSchema(t *testing.T) {
	m := sampleManifest()
	m.Schema = "aegis.run-manifest/v0"
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestLoadManifestRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("garbage accepted")
	}
}
