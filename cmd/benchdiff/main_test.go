package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: aegis
cpu: Some CPU @ 2.40GHz
BenchmarkTable1-8        	     120	      9731 ns/op	    1024 B/op	      17 allocs/op
BenchmarkFig5            	       2	 510000000 ns/op
BenchmarkFig8-8          	       3	 333000000 ns/op	 5000000 B/op	   90000 allocs/op
PASS
ok  	aegis	2.345s
`

func TestParseBenchOutput(t *testing.T) {
	bs, err := ParseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(bs), bs)
	}
	b := bs[0]
	if b.Name != "Table1" || b.FullName != "BenchmarkTable1-8" || b.Procs != 8 {
		t.Fatalf("name parsing wrong: %+v", b)
	}
	if b.Iterations != 120 || b.NsPerOp != 9731 || b.BytesPerOp != 1024 || b.AllocsPerOp != 17 {
		t.Fatalf("metric parsing wrong: %+v", b)
	}
	if bs[1].Name != "Fig5" || bs[1].Procs != 0 || bs[1].BytesPerOp != 0 {
		t.Fatalf("plain line parsing wrong: %+v", bs[1])
	}
}

func TestParseBenchOutputAveragesRepeats(t *testing.T) {
	repeated := "BenchmarkX-4 10 100 ns/op\nBenchmarkX-4 10 300 ns/op\n"
	bs, err := ParseBenchOutput(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].NsPerOp != 200 {
		t.Fatalf("averaging wrong: %+v", bs)
	}
}

func benchFile(ns map[string]float64) *File {
	f := &File{
		Schema:    BenchSchema,
		CreatedAt: time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC),
		GoVersion: "go1.22",
	}
	// Deterministic order for the test.
	for _, name := range []string{"Fig5", "Fig8", "Table1", "New"} {
		v, ok := ns[name]
		if !ok {
			continue
		}
		f.Benchmarks = append(f.Benchmarks, Benchmark{Name: name, FullName: "Benchmark" + name, Iterations: 1, NsPerOp: v})
	}
	return f
}

func TestCompareFlagsRegressions(t *testing.T) {
	oldF := benchFile(map[string]float64{"Fig5": 100, "Fig8": 100, "Table1": 100})
	newF := benchFile(map[string]float64{"Fig5": 150, "Fig8": 105, "New": 50})
	r := Compare(oldF, newF, 20, 10)
	if len(r.Regressions) != 1 || !strings.HasPrefix(r.Regressions[0], "Fig5") {
		t.Fatalf("regressions = %v, want [Fig5 ...]", r.Regressions)
	}
	if len(r.Deltas) != 2 {
		t.Fatalf("deltas = %+v, want 2", r.Deltas)
	}
	// Sorted by delta: worst first.
	if r.Deltas[0].Name != "Fig5" || !r.Deltas[0].Regression || r.Deltas[0].Pct != 50 {
		t.Fatalf("worst delta wrong: %+v", r.Deltas[0])
	}
	if r.Deltas[1].Name != "Fig8" || r.Deltas[1].Regression {
		t.Fatalf("within-threshold delta wrong: %+v", r.Deltas[1])
	}
	if len(r.OnlyOld) != 1 || r.OnlyOld[0] != "Table1" {
		t.Fatalf("OnlyOld = %v", r.OnlyOld)
	}
	if len(r.OnlyNew) != 1 || r.OnlyNew[0] != "New" {
		t.Fatalf("OnlyNew = %v", r.OnlyNew)
	}
	text := r.Format("old.json", "new.json", 20, 10)
	if !strings.Contains(text, "REGRESSION") || !strings.Contains(text, "2 compared, 1 regression(s)") {
		t.Fatalf("format wrong:\n%s", text)
	}
}

// allocFile builds a benchmark file with fixed ns/op and the given
// allocs/op per name, for exercising the allocation gate in isolation.
func allocFile(allocs map[string]float64) *File {
	f := &File{Schema: BenchSchema, GoVersion: "go1.22"}
	for _, name := range []string{"Fig5", "Fig8", "Table1"} {
		v, ok := allocs[name]
		if !ok {
			continue
		}
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Name: name, FullName: "Benchmark" + name, Iterations: 1, NsPerOp: 100, AllocsPerOp: v,
		})
	}
	return f
}

func TestCompareFlagsAllocRegressions(t *testing.T) {
	oldF := allocFile(map[string]float64{"Fig5": 1000, "Fig8": 1000, "Table1": 0})
	newF := allocFile(map[string]float64{"Fig5": 1200, "Fig8": 1050, "Table1": 3})
	r := Compare(oldF, newF, 20, 10)
	if len(r.Regressions) != 2 {
		t.Fatalf("regressions = %v, want Fig5 and Table1", r.Regressions)
	}
	byName := make(map[string]Delta)
	for _, d := range r.Deltas {
		byName[d.Name] = d
	}
	if d := byName["Fig5"]; !d.AllocRegression || d.AllocPct != 20 || d.Regression {
		t.Fatalf("Fig5 delta wrong: %+v", d)
	}
	if d := byName["Fig8"]; d.AllocRegression || d.AllocPct != 5 {
		t.Fatalf("Fig8 delta wrong: %+v", d)
	}
	// Zero → nonzero allocs is always a regression, whatever the threshold.
	if d := byName["Table1"]; !d.AllocRegression || !math.IsInf(d.AllocPct, 1) {
		t.Fatalf("Table1 delta wrong: %+v", d)
	}
	text := r.Format("old.json", "new.json", 20, 10)
	if !strings.Contains(text, "REGRESSION (allocs)") {
		t.Fatalf("alloc regression not marked:\n%s", text)
	}
}

// TestAllocGateCLI drives the CLI path the tentpole requires: a pure
// allocs/op regression (ns/op flat) must exit non-zero under
// -alloc-threshold, and a loose threshold must let it pass.
func TestAllocGateCLI(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "BENCH_baseline.json")
	newPath := filepath.Join(dir, "BENCH_new.json")
	if err := writeFile(oldPath, allocFile(map[string]float64{"Fig5": 1000})); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(newPath, allocFile(map[string]float64{"Fig5": 1500})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "200", "-alloc-threshold", "10"}, &out)
	if !errors.Is(err, errRegression) {
		t.Fatalf("alloc regression not flagged (err = %v); output:\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "200", "-alloc-threshold", "60"}, &out); err != nil {
		t.Fatalf("within-threshold alloc compare failed: %v\n%s", err, out.String())
	}
}

// TestNotesRoundTrip pins the provenance field: notes written at record
// time must survive the JSON round trip.
func TestNotesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	f := benchFile(map[string]float64{"Fig5": 100})
	f.Notes = "bench host: 1-core container"
	if err := writeFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Notes != f.Notes {
		t.Fatalf("notes = %q, want %q", got.Notes, f.Notes)
	}
}

// TestCompareCLIExitsNonZeroOnRegression drives the full CLI path the
// acceptance criterion requires: comparing two files where one benchmark
// slowed past the threshold must return an error (→ non-zero exit).
func TestCompareCLIExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "BENCH_baseline.json")
	newPath := filepath.Join(dir, "BENCH_new.json")
	if err := writeFile(oldPath, benchFile(map[string]float64{"Fig5": 100})); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(newPath, benchFile(map[string]float64{"Fig5": 200})); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "20"}, &out)
	if err == nil {
		t.Fatalf("regression not flagged; output:\n%s", out.String())
	}
	if !errors.Is(err, errRegression) {
		t.Fatalf("err = %v, want errRegression", err)
	}

	// Within threshold → success.
	out.Reset()
	if err := run([]string{"-old", oldPath, "-new", newPath, "-threshold", "150"}, &out); err != nil {
		t.Fatalf("within-threshold compare failed: %v\n%s", err, out.String())
	}
}

func TestCompareRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	bad := benchFile(map[string]float64{"Fig5": 100})
	bad.Schema = "other/v9"
	path := filepath.Join(dir, "bad.json")
	if err := writeFile(path, bad); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := writeFile(good, benchFile(map[string]float64{"Fig5": 100})); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-old", path, "-new", good}, &bytes.Buffer{}); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestFormatEchoesSchemas pins the report header: it must name the
// schema of each input so a reader can tell what produced the files.
func TestFormatEchoesSchemas(t *testing.T) {
	oldF := benchFile(map[string]float64{"Fig5": 100})
	newF := benchFile(map[string]float64{"Fig5": 101})
	r := Compare(oldF, newF, 20, 10)
	if r.OldSchema != BenchSchema || r.NewSchema != BenchSchema {
		t.Fatalf("report schemas = %q/%q, want %q", r.OldSchema, r.NewSchema, BenchSchema)
	}
	text := r.Format("old.json", "new.json", 20, 10)
	want := "benchdiff: old.json (" + BenchSchema + ") vs new.json (" + BenchSchema + ")"
	if !strings.Contains(text, want) {
		t.Fatalf("header missing schema echo:\n%s", text)
	}
}

// TestCompareSchemaMismatch checks two different aegis.bench versions
// are refused with an error that tells the user how to fix it.
func TestCompareSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	oldF := benchFile(map[string]float64{"Fig5": 100})
	oldF.Schema = "aegis.bench/v0"
	oldPath := filepath.Join(dir, "old.json")
	if err := writeFile(oldPath, oldF); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := writeFile(newPath, benchFile(map[string]float64{"Fig5": 100})); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-old", oldPath, "-new", newPath}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("mixed schemas accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "schema mismatch") ||
		!strings.Contains(msg, "aegis.bench/v0") || !strings.Contains(msg, BenchSchema) ||
		!strings.Contains(msg, "re-record") {
		t.Fatalf("mismatch error unhelpful: %v", err)
	}
}

func TestNoArgsIsAnError(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("benchdiff with no mode flags should fail")
	}
}

// TestCompareGOMAXPROCSMismatch checks that files recorded under
// different processor limits are refused, and that a file without the
// gomaxprocs field is read as its num_cpu.
func TestCompareGOMAXPROCSMismatch(t *testing.T) {
	dir := t.TempDir()
	legacy := benchFile(map[string]float64{"Fig5": 100})
	legacy.NumCPU = 1 // GOMAXPROCS left 0: the field is omitted on disk
	legacyPath := filepath.Join(dir, "legacy.json")
	if err := writeFile(legacyPath, legacy); err != nil {
		t.Fatal(err)
	}
	write := func(name string, procs int) string {
		f := benchFile(map[string]float64{"Fig5": 100})
		f.NumCPU, f.GOMAXPROCS = 2, procs
		path := filepath.Join(dir, name)
		if err := writeFile(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	two, one := write("two.json", 2), write("one.json", 1)

	err := run([]string{"-old", legacyPath, "-new", two}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("GOMAXPROCS 1 and 2 compared")
	}
	if msg := err.Error(); !strings.Contains(msg, "GOMAXPROCS=1") || !strings.Contains(msg, "GOMAXPROCS=2") {
		t.Fatalf("mismatch error does not name both values: %v", err)
	}
	if err := run([]string{"-old", legacyPath, "-new", one}, &bytes.Buffer{}); err != nil {
		t.Fatalf("legacy num_cpu 1 against gomaxprocs 1: %v", err)
	}
}
