package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"aegis/internal/engine"
	"aegis/internal/experiments"
	"aegis/internal/obs"
	"aegis/internal/serve"
	"aegis/internal/sim"
)

// updateCatalogue rewrites testdata/metrics_catalogue.golden from the
// current code: go test ./cmd/aegisbench -run TestMetricsCatalogue
// -update-catalogue.
var updateCatalogue = flag.Bool("update-catalogue", false, "rewrite the /metrics catalogue golden file")

// TestMetricsCatalogue pins the /metrics catalogue of both binaries
// that serve one: aegisd's job server after one deterministic blocks
// job, and aegisbench -http's mux over a registry an engine run filled.
// The catalogue is a set, so family and series order may change; what
// may not change is any family's name, HELP text or TYPE, any series'
// label names, or the value of any per-scheme or shard-cache series.
func TestMetricsCatalogue(t *testing.T) {
	lines := append(catalogue(t, "serve", scrapeServe(t)), catalogue(t, "bench", scrapeBench(t))...)
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "metrics_catalogue.golden")
	if *updateCatalogue {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update-catalogue to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics catalogue changed:\n%s", lineDiff(string(want), got))
	}
}

// scrapeServe runs one blocks job on a standalone server and returns
// the /metrics exposition scraped once the job reads done: the job's
// counters fold into the service registry before its state is
// published.
func scrapeServe(t *testing.T) string {
	srv, err := serve.New(serve.Options{Workers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	job := `{"kind":"blocks","scheme":"aegis:11","block_bits":64,"trials":6,"seed":5}`
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) || st.State == "failed" || st.State == "aborted" {
			t.Fatalf("job %s never finished: %q", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
		httpGet(t, hs.URL+"/v1/jobs/"+st.ID, &st)
	}
	httpGet(t, hs.URL+"/v1/jobs/"+st.ID+"/result", nil)

	var body string
	httpGet(t, hs.URL+"/metrics", &body)
	return body
}

// scrapeBench fills a registry through a two-shard engine run, the
// path every simulating aegisbench experiment takes, and returns the
// exposition of the -http mux over it.
func scrapeBench(t *testing.T) string {
	f, err := experiments.ParseScheme("aegis:11", 64)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	prog := obs.NewProgress()
	cfg := sim.Config{BlockBits: 64, MeanLife: 200, CoV: 0.25, Trials: 6, Seed: 5, Workers: 1, Obs: reg, Progress: prog}
	if _, err := (&engine.Engine{Shards: 2, Workers: 1}).Blocks(f, cfg); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newDebugMux(reg, prog))
	defer hs.Close()
	var body string
	httpGet(t, hs.URL+"/metrics", &body)
	return body
}

// httpGet fetches url and decodes the body into out: verbatim into a
// *string, as JSON into anything else, not at all for nil.
func httpGet(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	switch out := out.(type) {
	case nil:
	case *string:
		*out = string(data)
	default:
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

// catalogue reduces an exposition to its comparable lines, each
// prefixed with src:
//
//	family <name> <type> <help>
//	series <sample name> <sorted label names>
//	value <sample name>{<sorted labels>} <value>   (aegis_scheme_*, aegis_shard_*)
func catalogue(t *testing.T, src, text string) []string {
	t.Helper()
	help := map[string]string{}
	seen := map[string]bool{}
	var out []string
	add := func(line string) {
		if !seen[line] {
			seen[line] = true
			out = append(out, src+" "+line)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, h, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = h
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			add(fmt.Sprintf("family %s %s %s", name, kind, help[name]))
		default:
			name, labels, value, err := parseSample(line)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			names := make([]string, len(labels))
			pairs := make([]string, len(labels))
			for i, l := range labels {
				names[i] = l[0]
				pairs[i] = fmt.Sprintf("%s=%q", l[0], l[1])
			}
			sort.Strings(names)
			sort.Strings(pairs)
			add(fmt.Sprintf("series %s %s", name, strings.Join(names, ",")))
			if strings.HasPrefix(name, "aegis_scheme_") || strings.HasPrefix(name, "aegis_shard_") {
				add(fmt.Sprintf("value %s{%s} %s", name, strings.Join(pairs, ","), value))
			}
		}
	}
	return out
}

// parseSample splits one exposition sample line into its metric name,
// label pairs and value.  Label values may hold any byte, braces and
// commas included, with \\, \" and \n escaped.
func parseSample(line string) (name string, labels [][2]string, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("malformed sample %q", line)
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return "", nil, "", fmt.Errorf("malformed labels in %q", line)
			}
			lname := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for rest != "" && rest[0] != '"' {
				if rest[0] == '\\' && len(rest) > 1 {
					rest = rest[1:]
				}
				v.WriteByte(rest[0])
				rest = rest[1:]
			}
			if rest == "" {
				return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, [2]string{lname, v.String()})
			rest = strings.TrimPrefix(rest[1:], ",")
		}
		if rest == "" {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		rest = rest[1:]
	}
	return name, labels, strings.TrimSpace(rest), nil
}

// lineDiff lists the lines only one side holds.
func lineDiff(want, got string) string {
	in := func(text string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(text, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
