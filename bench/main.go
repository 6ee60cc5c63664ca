// Command bench is the repository's end-to-end benchmark.  It measures
// the simulator (Figure 5 and Figure 8 workloads) and the aegisd daemon
// (standalone with an unbounded and a bounded journal, and clustered)
// under a fixed, seeded input mix, checks every output, and reports the
// end-to-end metrics of BENCHMARK.json — or, in a traced run, the
// per-layer metrics, a span file and an attribution of CPU time to
// layer unit costs.
//
//	bash bench/run.sh -seed 1                        # every workload, tracing off
//	bash bench/run.sh -seed 1 -workload serve-mixed  # one workload
//	bash bench/run.sh -seed 1 -trace spans.jsonl     # traced run, per-layer metrics
//
// Each workload runs in a child process (the program re-executes
// itself), so heap, pools and peak RSS are per workload.  The program
// prints one line per metric ("workload metric value unit"), writes the
// same data as an aegis.benchmark/v1 document with -out, and ends its
// output with one JSON line: {"correct", "attempted", "failed",
// "metrics"}.  It exits non-zero when any output check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aegis/internal/obs"
)

// Schema identifies the -out document.
const Schema = "aegis.benchmark/v1"

// childTimeout bounds one workload's child process: a hung daemon must
// not hang the benchmark.
const childTimeout = 170 * time.Second

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	workdir  string
	child    bool
}

// spanPath reports whether -trace asks for the traced run, and where its
// spans go: "1" writes them under the work directory, any value other
// than "0" names the file.
func (o options) spanPath() (string, bool) {
	switch o.trace {
	case "", "0":
		return "", false
	case "1":
		return filepath.Join(o.workdir, "spans.jsonl"), true
	}
	return o.trace, true
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of each timed phase")
	fs.StringVar(&o.trace, "trace", "0", `"0" for end-to-end metrics; "1" or a span file path for the traced run`)
	fs.StringVar(&o.out, "out", "", "write an "+Schema+" document here")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for caches, journals and spans")
	fs.BoolVar(&o.child, "child", false, "internal: run -workload in this process and print its result")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if o.seconds <= 0 {
		return 2, errors.New("-seconds must be positive")
	}
	if o.workload != "" {
		if _, err := lookupWorkload(o.workload); err != nil {
			return 2, err
		}
	}
	if o.child {
		return runChild(o, stdout)
	}
	return runParent(o, stdout, stderr)
}

// runChild runs one workload in this process and prints its result as
// one JSON line.
func runChild(o options, stdout io.Writer) (int, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return 2, err
	}
	spans, traced := o.spanPath()
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	res, err := runWorkload(w, childOpts{seed: o.seed, seconds: o.seconds, traced: traced, spans: spans, dir: dir})
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0, nil
}

// report is the aegis.benchmark/v1 document.
type report struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      map[string]string `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

// runParent runs each selected workload in its own child process and
// reports their results.
func runParent(o options, stdout, stderr io.Writer) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return 1, err
	}
	spans, traced := o.spanPath()
	if traced {
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			return 1, err
		}
	}
	rep := report{Schema: Schema, Seed: o.seed, Seconds: o.seconds, Traced: traced, Host: map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()), "go": runtime.Version(), "git_sha": obs.GitSHA(),
	}}
	var names []string
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	final := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: true, Metrics: metricSet{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, name := range names {
		res, err := runChildProcess(exe, name, o, stderr)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads = append(rep.Workloads, res)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "%s: check failed: %s\n", name, e)
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				return 1, fmt.Errorf("%s: metric %s missing", name, d.name)
			}
			fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			final.Metrics[key] = v
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// runChildProcess re-executes the program for one workload and parses
// the result line it prints.
func runChildProcess(exe, name string, o options, stderr io.Writer) (*workloadResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := o.trace
	if spans, traced := o.spanPath(); traced {
		trace = spans // every child appends to the one span file
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-workdir", o.workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res workloadResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}
