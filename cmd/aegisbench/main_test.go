package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aegis/internal/experiments"
	"aegis/internal/obs"
)

// capture runs the CLI with stdout redirected to a pipe-backed file.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig5", "fig13", "ablation-wear"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %q:\n%s", id, out)
		}
	}
}

// TestUsageNamesEveryID checks that the -exp usage text and the -list
// output name every id experiments.Run accepts.
func TestUsageNamesEveryID(t *testing.T) {
	list, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatal(err)
	}
	usage := strings.FieldsFunc(expUsage(), func(r rune) bool { return strings.ContainsRune(" ,;:()", r) })
	listed := strings.Fields(list)
	ids := append(append([]string{"all", "extensions"}, experiments.IDs...), experiments.AblationIDs...)
	for _, id := range ids {
		if !slices.Contains(usage, id) {
			t.Errorf("-exp usage does not name %q: %s", id, expUsage())
		}
		if !slices.Contains(listed, id) {
			t.Errorf("-list does not name %q:\n%s", id, list)
		}
	}
}

func TestTable1RunsInstantly(t *testing.T) {
	out, err := capture(t, []string{"-exp", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "552") {
		t.Fatalf("table1 output wrong:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := capture(t, []string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := capture(t, []string{"-preset", "warp"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, []string{"-exp", "fig2", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 2 CSV file(s)") {
		t.Fatalf("CSV message missing:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "fig2_*.csv"))
	if err != nil || len(files) != 2 {
		t.Fatalf("CSV files = %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "b\\a") {
		t.Fatalf("CSV content wrong: %s", data)
	}
}

func TestSeedOverride(t *testing.T) {
	// Seeded quick fig10 runs must differ between seeds but repeat
	// within a seed.
	args := func(seed string) []string {
		return []string{"-exp", "fig10", "-preset", "quick", "-seed", seed}
	}
	a1, err := capture(t, args("5"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := capture(t, args("5"))
	if err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		// Drop the timing line, which legitimately varies.
		lines := strings.Split(s, "\n")
		var keep []string
		for _, l := range lines {
			if strings.HasPrefix(l, "done in") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if strip(a1) != strip(a2) {
		t.Fatal("same seed produced different output")
	}
	b, err := capture(t, args("6"))
	if err != nil {
		t.Fatal(err)
	}
	if strip(a1) == strip(b) {
		t.Fatal("different seeds produced identical output")
	}
}

func TestSeriesCSVExport(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, []string{"-exp", "fig10", "-preset", "quick", "-csv", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 2 CSV file(s)") {
		t.Fatalf("expected table + series CSVs:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig10_series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y\n") {
		t.Fatalf("series CSV header wrong: %s", data[:40])
	}
	if !strings.Contains(string(data), "Aegis-rw-p 9x61") {
		t.Fatalf("series CSV missing curves:\n%s", data)
	}
}

func TestExtensionsRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions sweep in -short mode")
	}
	// quick preset over every extension experiment; smoke only.
	out, err := capture(t, []string{"-exp", "extensions", "-preset", "quick"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Write traffic", "Soft vs hard FTC", "PAYG", "wear-leveling techniques"} {
		if !strings.Contains(out, want) {
			t.Fatalf("extensions output missing %q", want)
		}
	}
}

// TestJSONManifestGolden pins the manifest schema: key set, schema
// marker, git SHA, seed and result rows must stay stable so downstream
// tooling (CI artifact consumers) can rely on them.
func TestJSONManifestGolden(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, []string{"-exp", "table1", "-json", dir})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote run manifest") {
		t.Fatalf("manifest message missing:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.json"))
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
			t.Errorf("manifest missing key %q", key)
		}
	}

	m, err := obs.LoadManifest(filepath.Join(dir, "table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != obs.ManifestSchema {
		t.Fatalf("schema = %q, want %q", m.Schema, obs.ManifestSchema)
	}
	if m.Experiment != "table1" || m.Preset != "default" || m.Seed != 1 {
		t.Fatalf("run identity wrong: %+v", m)
	}
	if m.GitSHA == "" || m.GoVersion == "" {
		t.Fatalf("environment stamps missing: sha=%q go=%q", m.GitSHA, m.GoVersion)
	}
	if len(m.Tables) != 1 || !strings.Contains(m.Tables[0].Title, "Table 1") {
		t.Fatalf("tables wrong: %+v", m.Tables)
	}
	if len(m.Tables[0].Rows) != 10 || m.Tables[0].Rows[9][1] != "101" {
		t.Fatalf("table1 rows wrong: %+v", m.Tables[0].Rows)
	}
	if m.Counters == nil {
		t.Fatal("counters field absent (want at least an empty object)")
	}
}

// TestJSONManifestCounters checks a simulating experiment populates
// per-scheme counter totals in the manifest.
func TestJSONManifestCounters(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, []string{"-exp", "fig10", "-preset", "quick", "-json", dir}); err != nil {
		t.Fatal(err)
	}
	m, err := obs.LoadManifest(filepath.Join(dir, "fig10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Counters) == 0 {
		t.Fatal("fig10 manifest has no counters")
	}
	tot, ok := m.Counters["Aegis-rw 9x61"]
	if !ok {
		t.Fatalf("missing Aegis-rw 9x61 counters; have %v", keys(m.Counters))
	}
	if tot.Writes == 0 || tot.VerifyReads == 0 || tot.BlockDeaths == 0 {
		t.Fatalf("implausible totals %+v", tot)
	}
	if len(m.Series) == 0 {
		t.Fatal("fig10 manifest lost its series")
	}
	if m.WallSeconds <= 0 {
		t.Fatalf("wall_seconds = %v", m.WallSeconds)
	}
}

// TestEventTraceAndManifestValidate runs a quick simulating preset with
// -json and -events and validates both artifacts against their schemas.
// CI runs exactly this combination and uploads the trace, so this test
// is the schema gate for the pipeline.
func TestEventTraceAndManifestValidate(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "fig10.events.jsonl")
	out, err := capture(t, []string{
		"-exp", "fig10", "-preset", "quick",
		"-json", dir, "-events", events, "-sample", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote event trace") {
		t.Fatalf("event-trace message missing:\n%s", out)
	}

	tr, err := obs.ReadEvents(events)
	if err != nil {
		t.Fatalf("event trace does not validate: %v", err)
	}
	if tr.SampleEvery != 2 {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if len(tr.Events) == 0 {
		t.Fatal("quick fig10 run produced no decision events")
	}
	kinds := map[string]bool{}
	for _, e := range tr.Events {
		kinds[e.Kind] = true
	}
	if !kinds["block_death"] {
		t.Fatalf("trace has no block_death events; kinds = %v", kinds)
	}

	m, err := obs.LoadManifest(filepath.Join(dir, "fig10.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != obs.ManifestSchema {
		t.Fatalf("schema = %q, want v2 %q", m.Schema, obs.ManifestSchema)
	}
	if len(m.Histograms) == 0 {
		t.Fatal("v2 manifest has no histograms")
	}
	h, ok := m.Histograms["Aegis-rw 9x61"]
	if !ok || h.Lifetime.Count == 0 {
		t.Fatalf("lifetime histogram missing or empty: %+v", m.Histograms)
	}
	if m.Events == nil {
		t.Fatal("manifest lost the event-trace summary")
	}
	if m.Events.Path != events || m.Events.SampleEvery != 2 {
		t.Fatalf("event summary identity wrong: %+v", m.Events)
	}
	if m.Events.Written != int64(len(tr.Events)) {
		t.Fatalf("manifest says %d events written, trace holds %d", m.Events.Written, len(tr.Events))
	}
	if m.Events.Dropped != tr.Dropped {
		t.Fatalf("dropped mismatch: manifest %d, trailer %d", m.Events.Dropped, tr.Dropped)
	}
}

func keys(m map[string]obs.Totals) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestProfileFlags smoke-tests -cpuprofile/-memprofile/-trace output.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	tr := filepath.Join(dir, "trace.out")
	out, err := capture(t, []string{"-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr})
	if err != nil {
		t.Fatal(err)
	}
	// -memprofile runs a warm-up pass and snapshots its heap as the
	// diff base, so the measured profile reflects steady state.
	if !strings.Contains(out, "memprofile: warm-up done") {
		t.Fatalf("output does not mention the warm-up diff base:\n%s", out)
	}
	for _, path := range []string{cpu, mem, mem + ".warmup", tr} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s missing: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestMarkdownFormat(t *testing.T) {
	out, err := capture(t, []string{"-exp", "table1", "-format", "md"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "### Table 1") || !strings.Contains(out, "| hard FTC |") {
		t.Fatalf("markdown output wrong:\n%s", out)
	}
	if _, err := capture(t, []string{"-exp", "table1", "-format", "html"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestDebugMux: the -http surface is the same operational mux aegisd
// mounts — /metrics with the run registry's scheme counters and bench
// progress gauges, expvar at /debug/vars, pprof, plus the per-binary progress
// JSON.
func TestDebugMux(t *testing.T) {
	reg := obs.NewRegistry()
	sc := reg.Scheme("Aegis 6x11")
	sc.Writes.Add(7)
	sc.BitWrites.Add(41)
	prog := obs.NewProgress()
	prog.SetExperiment("table1")
	prog.AddTotal(10)
	prog.Done(4)

	srv := httptest.NewServer(newDebugMux(reg, prog))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		`aegis_scheme_writes_total{scheme="Aegis 6x11"} 7`,
		`aegis_scheme_bit_writes_total{scheme="Aegis 6x11"} 41`,
		"aegis_bench_trials_done 4",
		"aegis_bench_trials_total 10",
		"aegis_build_info{",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get("/debug/aegis/progress")
	if code != http.StatusOK {
		t.Fatalf("/debug/aegis/progress: %d", code)
	}
	var snap obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("progress JSON: %v\n%s", err, body)
	}
	if snap.Experiment != "table1" || snap.TrialsDone != 4 || snap.TrialsTotal != 10 {
		t.Fatalf("progress snapshot: %+v", snap)
	}

	code, body, _ = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "aegis.counters") {
		t.Fatalf("/debug/vars: %d, aegis.counters present: %v", code, strings.Contains(body, "aegis.counters"))
	}

	if code, _, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}
