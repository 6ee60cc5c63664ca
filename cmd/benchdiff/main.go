// Command benchdiff is the machine-readable benchmark pipeline: it runs
// the repository's Go benchmarks, normalizes the output into a
// BENCH_<date>.json file, and compares two such files with a regression
// threshold — exiting non-zero when any benchmark slowed down past it.
//
// Usage:
//
//	benchdiff -run -out BENCH_2026-08-06.json
//	benchdiff -run -bench 'Table1|Fig5' -benchtime 2x -pkg . -out BENCH_new.json
//	benchdiff -old BENCH_baseline.json -new BENCH_new.json -threshold 20
//	benchdiff -run -old BENCH_baseline.json -out BENCH_new.json   (run, then compare)
//	benchdiff -run -notes "bench host: 8-core xeon" -out BENCH_baseline.json
//
// The comparison matches benchmarks by name (GOMAXPROCS suffix
// stripped) between two files recorded under the same GOMAXPROCS,
// reports the ns/op and allocs/op delta of every common
// benchmark, and fails when a ns/op delta exceeds -threshold percent or
// an allocs/op delta exceeds -alloc-threshold percent.  Allocation
// counts are deterministic, so the alloc gate holds even on noisy
// shared runners where wall-clock thresholds must stay loose.
// Benchmarks that appear on only one side are reported but never fail
// the run.  CI keeps BENCH_baseline.json checked in; refresh it with
// `make bench-baseline` on a quiet machine and commit the result
// alongside perf-affecting changes (see DESIGN.md §"Benchmark
// pipeline" and §12 "Hot path and memory discipline").
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aegis/internal/obs"
)

// BenchSchema identifies the normalized benchmark file format.
const BenchSchema = "aegis.bench/v1"

// File is one normalized benchmark run.
type File struct {
	Schema    string    `json:"schema"`
	CreatedAt time.Time `json:"created_at"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	// GOMAXPROCS is the processor limit the benchmarks ran under.  The
	// simulator keeps per-worker scratch, so allocs/op grow with it, and
	// Compare refuses files recorded under different values.  A file
	// without the field is read as its num_cpu.
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GitSHA     string `json:"git_sha"`
	Benchtime  string `json:"benchtime,omitempty"`
	// Notes is free-form provenance supplied at record time (-notes):
	// what host class produced the file, why it was refreshed.
	Notes      string      `json:"notes,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one normalized benchmark result line.
type Benchmark struct {
	// Name is the benchmark identity used for matching, the Go name
	// without the "Benchmark" prefix and -GOMAXPROCS suffix.
	Name string `json:"name"`
	// FullName is the raw name as printed by `go test`.
	FullName    string  `json:"full_name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		doRun          = fs.Bool("run", false, "run the Go benchmarks and write a normalized JSON file")
		bench          = fs.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime      = fs.String("benchtime", "1x", "value passed to go test -benchtime")
		pkg            = fs.String("pkg", ".", "package pattern passed to go test")
		count          = fs.Int("count", 1, "value passed to go test -count")
		outPath        = fs.String("out", "", "output path for -run (default BENCH_<date>.json)")
		notes          = fs.String("notes", "", "free-form provenance recorded in the -run output file")
		oldPath        = fs.String("old", "", "baseline benchmark JSON to compare against")
		newPath        = fs.String("new", "", "fresh benchmark JSON to compare (defaults to -out after -run)")
		threshold      = fs.Float64("threshold", 20, "fail when ns/op regresses by more than this percent")
		allocThreshold = fs.Float64("alloc-threshold", 10, "fail when allocs/op regresses by more than this percent")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*doRun && *oldPath == "" {
		return fmt.Errorf("nothing to do: pass -run to record benchmarks and/or -old/-new to compare (see -h)")
	}

	if *outPath == "" {
		*outPath = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	if *doRun {
		if err := runBenchmarks(*bench, *benchtime, *pkg, *count, *outPath, *notes, out); err != nil {
			return err
		}
		if *newPath == "" {
			*newPath = *outPath
		}
	}
	if *oldPath != "" {
		if *newPath == "" {
			return fmt.Errorf("-old given without -new (or -run)")
		}
		return compareFiles(*oldPath, *newPath, *threshold, *allocThreshold, out)
	}
	return nil
}

// runBenchmarks executes `go test -bench` and writes the normalized
// results to outPath.
func runBenchmarks(bench, benchtime, pkg string, count int, outPath, notes string, out io.Writer) error {
	args := []string{
		"test", "-run", "NONE", "-bench", bench,
		"-benchtime", benchtime, "-benchmem",
		"-count", strconv.Itoa(count), pkg,
	}
	fmt.Fprintf(out, "benchdiff: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	benchmarks, err := ParseBenchOutput(&buf)
	if err != nil {
		return err
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("no benchmark results parsed from go test output")
	}
	f := &File{
		Schema:     BenchSchema,
		CreatedAt:  time.Now().UTC(),
		GoVersion:  obs.GoVersion(),
		GOOS:       obs.GOOS(),
		GOARCH:     obs.GOARCH(),
		NumCPU:     obs.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     obs.GitSHA(),
		Benchtime:  benchtime,
		Notes:      notes,
		Benchmarks: benchmarks,
	}
	if err := writeFile(outPath, f); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchdiff: wrote %d benchmark(s) to %s\n", len(benchmarks), outPath)
	return nil
}

// benchLine matches standard `go test -bench` result lines, e.g.
//
//	BenchmarkTable1-8   120   9731 ns/op   1024 B/op   17 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+([0-9.e+]+) ns/op(?:\s+([0-9.e+]+) B/op)?(?:\s+([0-9.e+]+) allocs/op)?`)

// ParseBenchOutput extracts benchmark results from `go test -bench`
// output.  Repeated names (-count > 1, or the same benchmark in several
// packages) are averaged.
func ParseBenchOutput(r io.Reader) ([]Benchmark, error) {
	type acc struct {
		Benchmark
		n int
	}
	byName := make(map[string]*acc)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b := Benchmark{FullName: m[1]}
		b.Name = strings.TrimPrefix(m[1], "Benchmark")
		if m[2] != "" {
			b.Procs, _ = strconv.Atoi(m[2])
			b.FullName = fmt.Sprintf("%s-%d", m[1], b.Procs)
		}
		b.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		var err error
		if b.NsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
			return nil, fmt.Errorf("parse ns/op in %q: %w", sc.Text(), err)
		}
		if m[5] != "" {
			b.BytesPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if m[6] != "" {
			b.AllocsPerOp, _ = strconv.ParseFloat(m[6], 64)
		}
		if a, ok := byName[b.Name]; ok {
			a.NsPerOp += b.NsPerOp
			a.BytesPerOp += b.BytesPerOp
			a.AllocsPerOp += b.AllocsPerOp
			a.Iterations += b.Iterations
			a.n++
		} else {
			byName[b.Name] = &acc{Benchmark: b, n: 1}
			order = append(order, b.Name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		a := byName[name]
		a.NsPerOp /= float64(a.n)
		a.BytesPerOp /= float64(a.n)
		a.AllocsPerOp /= float64(a.n)
		out = append(out, a.Benchmark)
	}
	return out, nil
}

// errRegression marks a comparison that exceeded the threshold; main
// turns it into a non-zero exit.
var errRegression = fmt.Errorf("benchmark regression past threshold")

// compareFiles diffs two normalized benchmark files and fails when any
// common benchmark's ns/op or allocs/op regressed past its threshold.
func compareFiles(oldPath, newPath string, thresholdPct, allocThresholdPct float64, out io.Writer) error {
	oldF, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadFile(newPath)
	if err != nil {
		return err
	}
	if oldF.Schema != newF.Schema {
		return obs.SchemaMismatch(oldPath, oldF.Schema, newPath, newF.Schema,
			"re-record one side with this benchdiff (`benchdiff -run`) so both files share a schema")
	}
	if oldF.GOMAXPROCS != newF.GOMAXPROCS {
		return fmt.Errorf("%s was recorded at GOMAXPROCS=%d and %s at GOMAXPROCS=%d; "+
			"allocs/op scale with the simulator's worker count, so re-record one side with GOMAXPROCS=%d",
			oldPath, oldF.GOMAXPROCS, newPath, newF.GOMAXPROCS, oldF.GOMAXPROCS)
	}
	report := Compare(oldF, newF, thresholdPct, allocThresholdPct)
	fmt.Fprint(out, report.Format(oldPath, newPath, thresholdPct, allocThresholdPct))
	if len(report.Regressions) > 0 {
		return fmt.Errorf("%w: %s", errRegression, strings.Join(report.Regressions, ", "))
	}
	return nil
}

// Delta is one benchmark's old/new comparison.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Pct        float64 // (new-old)/old in percent
	Regression bool    // ns/op past the time threshold

	OldAllocs       float64
	NewAllocs       float64
	AllocPct        float64 // (new-old)/old in percent; +Inf when old was 0
	AllocRegression bool    // allocs/op past the alloc threshold
}

// Report is the outcome of comparing two benchmark files.
type Report struct {
	// OldSchema and NewSchema are the input files' schema versions,
	// echoed in the report header.
	OldSchema   string
	NewSchema   string
	Deltas      []Delta
	OnlyOld     []string
	OnlyNew     []string
	Regressions []string
}

// Compare matches benchmarks by name and computes ns/op and allocs/op
// deltas against their respective thresholds.
func Compare(oldF, newF *File, thresholdPct, allocThresholdPct float64) *Report {
	oldBy := make(map[string]Benchmark, len(oldF.Benchmarks))
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := make(map[string]Benchmark, len(newF.Benchmarks))
	for _, b := range newF.Benchmarks {
		newBy[b.Name] = b
	}
	r := &Report{OldSchema: oldF.Schema, NewSchema: newF.Schema}
	for _, b := range newF.Benchmarks {
		o, ok := oldBy[b.Name]
		if !ok {
			r.OnlyNew = append(r.OnlyNew, b.Name)
			continue
		}
		d := Delta{
			Name:  b.Name,
			OldNs: o.NsPerOp, NewNs: b.NsPerOp,
			OldAllocs: o.AllocsPerOp, NewAllocs: b.AllocsPerOp,
		}
		if o.NsPerOp > 0 {
			d.Pct = 100 * (b.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		d.Regression = d.Pct > thresholdPct
		if d.Regression {
			r.Regressions = append(r.Regressions, fmt.Sprintf("%s (+%.1f%%)", d.Name, d.Pct))
		}
		// Allocation counts are deterministic, so a benchmark that
		// allocated nothing in the baseline and allocates now is always
		// a regression, not a division-by-zero corner.
		switch {
		case o.AllocsPerOp > 0:
			d.AllocPct = 100 * (b.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp
			d.AllocRegression = d.AllocPct > allocThresholdPct
		case b.AllocsPerOp > 0:
			d.AllocPct = math.Inf(1)
			d.AllocRegression = true
		}
		if d.AllocRegression {
			r.Regressions = append(r.Regressions,
				fmt.Sprintf("%s (allocs %.0f → %.0f)", d.Name, d.OldAllocs, d.NewAllocs))
		}
		r.Deltas = append(r.Deltas, d)
	}
	for _, b := range oldF.Benchmarks {
		if _, ok := newBy[b.Name]; !ok {
			r.OnlyOld = append(r.OnlyOld, b.Name)
		}
	}
	sort.Slice(r.Deltas, func(i, j int) bool { return r.Deltas[i].Pct > r.Deltas[j].Pct })
	sort.Strings(r.OnlyOld)
	sort.Strings(r.OnlyNew)
	return r
}

// Format renders the comparison as an aligned text table.
func (r *Report) Format(oldPath, newPath string, thresholdPct, allocThresholdPct float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchdiff: %s (%s) vs %s (%s), thresholds: ns/op +%.1f%%, allocs/op +%.1f%%\n",
		oldPath, r.OldSchema, newPath, r.NewSchema, thresholdPct, allocThresholdPct)
	width := len("benchmark")
	for _, d := range r.Deltas {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %14s  %14s  %8s  %12s  %12s  %8s\n", width, "benchmark",
		"old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, d := range r.Deltas {
		mark := ""
		switch {
		case d.Regression && d.AllocRegression:
			mark = "  REGRESSION (time, allocs)"
		case d.Regression:
			mark = "  REGRESSION (time)"
		case d.AllocRegression:
			mark = "  REGRESSION (allocs)"
		}
		allocPct := fmt.Sprintf("%+7.1f%%", d.AllocPct)
		if math.IsInf(d.AllocPct, 1) {
			allocPct = "    +inf"
		}
		fmt.Fprintf(&sb, "%-*s  %14.0f  %14.0f  %+7.1f%%  %12.0f  %12.0f  %s%s\n",
			width, d.Name, d.OldNs, d.NewNs, d.Pct, d.OldAllocs, d.NewAllocs, allocPct, mark)
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(&sb, "%-*s  only in %s\n", width, name, oldPath)
	}
	for _, name := range r.OnlyNew {
		fmt.Fprintf(&sb, "%-*s  only in %s\n", width, name, newPath)
	}
	fmt.Fprintf(&sb, "%d compared, %d regression(s)\n", len(r.Deltas), len(r.Regressions))
	return sb.String()
}

// loadFile reads and validates a normalized benchmark file.
func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	// Accept any aegis.bench/* version here so compareFiles can name
	// both sides' schemas in its mismatch error; anything else is not a
	// benchmark file at all.
	if !strings.HasPrefix(f.Schema, "aegis.bench/") {
		return nil, fmt.Errorf("%s has schema %q, want %q", path, f.Schema, BenchSchema)
	}
	if f.GOMAXPROCS == 0 {
		f.GOMAXPROCS = f.NumCPU
	}
	return &f, nil
}

// writeFile serializes a benchmark file as indented JSON.
func writeFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
