package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/pkg/client"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("nearestRank sorted its input in place")
	}
	// A tail is reportable with at least ten samples beyond it.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{1000, 99, 10}, {999, 99, 9}, {500, 98, 10}, {100, 90, 10}, {22, 90, 2}, {1, 90, 0}, {0, 90, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

// TestTailNeedsSamples shows that a run whose phase leaves fewer than
// minBeyond samples beyond p90 fails instead of reporting it.
func TestTailNeedsSamples(t *testing.T) {
	few := workload{name: "few", setup: func(e env) (instance, error) {
		return newSimInstance(simSpec{pages: 2, meanLife: 12, minRounds: 3}, e.seed, func() []scheme.Factory {
			return []scheme.Factory{ecp.MustFactory(512, 4)}
		}), nil
	}}
	_, err := runWorkload(few, childOpts{seed: 1, seconds: 0.001, dir: t.TempDir(), tiny: true})
	if err == nil || !strings.Contains(err.Error(), "beyond p90") {
		t.Errorf("3 jobs reported a p90: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		// Overlapping siblings count once: [10,50) ∪ [40,60) = 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 60},
		// A child reaching past its parent is clipped: 10 of 30.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// Nested: a grandchild takes self time from its parent only.
		{ID: 5, Parent: 2, Name: "d", Start: 20, End: 30},
		{ID: 6, Parent: 2, Name: "d", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 25, 3: 20, 4: 30, 5: 10, 6: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if by := selfByName(spans); by["d"] != 20 || by["job"] != 40 {
		t.Errorf("selfByName = %v", by)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRE)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q does not match %s", d.name, d.unit, unitRE)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric %s defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" || d.bound != 0.25 {
		t.Errorf("setup_s must lead with unit s, lower, the largest bound; got %+v", d)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the program's own
// workload and metric definitions identical.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []def, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounds ||
				(bounds && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

func TestHardFTC(t *testing.T) {
	for _, c := range []struct {
		f    scheme.Factory
		want int
	}{
		{scheme.NoneFactory{Bits: 512}, 0},
		{ecp.MustFactory(512, 6), 6},
		{safer.MustFactory(512, 32), 6},
		{safer.MustCachedFactory(512, 64, perfect), 7},
		{rdis.MustFactory(512, 3, perfect), 3},
		{core.MustFactory(512, 23), 7},
	} {
		if got := hardFTC(c.f); got != c.want {
			t.Errorf("hardFTC(%s) = %d, want %d", c.f.Name(), got, c.want)
		}
	}
}

func TestJobGenDeterministic(t *testing.T) {
	draw := func() []string {
		g := newJobGen(7, 1)
		var out []string
		for i := 0; i < 300; i++ {
			s, repeat := g.next()
			if !repeat {
				g.seen = append(g.seen, s)
			}
			b, _ := json.Marshal(s)
			out = append(out, string(b))
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different job sequences")
	}
	distinct := make(map[string]bool)
	for _, s := range a {
		distinct[s] = true
	}
	if fresh := len(distinct); fresh < 170 || fresh > 230 {
		t.Errorf("%d fresh jobs of 300, want about two thirds", fresh)
	}
}

// TestDoctoredOutputFails shows that every kind of output check catches
// one wrong value.
func TestDoctoredOutputFails(t *testing.T) {
	curve := newSimInstance(simSpec{curve: true, calls: 1, trials: 4}, 3, fig8Roster)
	if _, err := curve.run(0.001, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := curve.check(); err != nil {
		t.Fatalf("undoctored curve: %v", err)
	}
	curve.results[0].dead[1] = 1 // ECP6 cannot lose a block to one fault
	if _, err := curve.check(); err == nil || !strings.Contains(err.Error(), "hard FTC") {
		t.Errorf("doctored curve passed: %v", err)
	}

	pages := newSimInstance(simSpec{pages: 2, meanLife: 12}, 3, func() []scheme.Factory {
		return []scheme.Factory{ecp.MustFactory(512, 4)}
	})
	if _, err := pages.run(0.001, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pages.check(); err != nil {
		t.Fatalf("undoctored pages: %v", err)
	}
	pages.results[0].pages[1].RecoveredFaults = 4 // ECP4 dies at 5 faults or more
	if _, err := pages.check(); err == nil {
		t.Error("doctored page passed")
	}
	ecp4 := ecp.MustFactory(512, 4)
	if err := checkBlocks(ecp4, []sim.BlockResult{{FaultsAtDeath: 5}, {FaultsAtDeath: 4}}); err == nil {
		t.Error("a block that died within its hard FTC passed")
	}

	// 64 pages take the bit-sliced path; the check reruns them scalar.
	sliced := newSimInstance(simSpec{pages: 64, meanLife: 12, minRounds: 1}, 3, func() []scheme.Factory {
		return []scheme.Factory{ecp4}
	})
	if _, err := sliced.run(0.001, nil); err != nil {
		t.Fatal(err)
	}
	if !sliced.results[0].call.eligible() {
		t.Fatal("a 64-page ECP call does not take the bit-sliced path")
	}
	if _, err := sliced.check(); err != nil {
		t.Fatalf("undoctored sliced pages: %v", err)
	}
	sliced.results[0].pages[7].Lifetime++
	if _, err := sliced.check(); err == nil || !strings.Contains(err.Error(), "scalar") {
		t.Errorf("doctored sliced page passed: %v", err)
	}

	job := jobRecord{spec: client.JobSpec{Kind: "blocks", Scheme: "aegis:61", Preset: "quick", Trials: 4, Seed: 99}}
	job.payload = json.RawMessage(`[{"lifetime":1,"faults_at_death":1,"bit_writes":1}]`)
	if err := recompute(job); err == nil {
		t.Error("doctored job payload passed the recompute check")
	}

	o := childOpts{seed: 1}
	if err := o.checkDigest("serve-mixed", strings.Repeat("0", 64)); err == nil {
		t.Error("a wrong seed-1 digest passed")
	}
}

// TestSmokeAllWorkloads runs every workload at test size, with the
// traced phase and the probe, on loopback only.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// A service phase must last long enough for every client to
			// finish the fresh jobs its output digest covers.
			seconds := 1.0
			if strings.HasPrefix(w.name, "fig") {
				seconds = 0.3
			}
			res, err := runWorkload(w, childOpts{seed: 2, seconds: seconds, traced: true, dir: t.TempDir(), tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			for _, name := range []string{"xrand.fill_ns", "pcm.write_ns", "scheme.write_ns.aegis", "engine.write_shard_ms_p50", "sim.trials"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
	res, err := runWorkload(workloads[1], childOpts{seed: 2, seconds: 0.3, dir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if res.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}} {
		if code, err := run(args, io.Discard, io.Discard); code == 0 || err == nil {
			t.Errorf("run(%v) = %d, %v; want an error", args, code, err)
		}
	}
}
