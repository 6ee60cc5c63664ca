package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"aegis/internal/engine"
	"aegis/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds a ready instance: rosters and layouts, or daemon,
	// journal, listeners and workers, plus one untimed warm-up.
	setup func(e env) (instance, error)
}

// env is what a workload's setup receives.
type env struct {
	seed int64
	dir  string   // scratch directory the instance may fill
	logs *logSink // non-nil in the traced phase
	tiny bool     // test-sized inputs
}

// instance is a set-up workload.
type instance interface {
	// run measures one timed phase of about seconds.
	run(seconds float64, tr *tracer) (*phase, error)
	// check verifies the last phase's outputs and returns their digest.
	check() (string, error)
	// layers sets the per-layer metrics only this kind of workload has.
	layers(m metricSet, tr *tracer)
	// probeInputs returns the scalar trials and shards the probe replays.
	probeInputs() ([]probeTrial, []*engine.Shard, error)
	// work lists the last phase's write and block counts by unit cost.
	work() []workCount
	close() error
}

// workCount is simulated work a probe unit cost applies to.
type workCount struct {
	key    probeKey
	writes int64 // scheme write requests
	blocks int64 // block lifetimes drawn (trials × blocks per trial)
}

// tracer carries the traced phase's recorders.
type tracer struct {
	trace string
	spans *spanStore
	logs  *logSink
}

// phase is what one timed phase measured.
type phase struct {
	wall      float64   // seconds
	lat       []float64 // completed jobs' latencies, ms
	attempted int
	failed    int
	writes    int64 // simulated block write requests
	// rss holds per-round peak RSS in MB (simulation workloads); their
	// median stands for the phase, or the process peak when it is empty.
	rss  []float64
	proc procStats
}

var workloads = []workload{
	{
		name: "fig5-pages",
		why:  "Figure-5 page study, both rosters: the wear-limited hot path, and the only workload where the default lane policy takes the bit-sliced path",
		setup: func(e env) (instance, error) {
			spec := simSpec{pages: 64, meanLife: 50, minRounds: 5}
			if e.tiny {
				spec.meanLife, spec.minRounds = 12, 1
			}
			return newSimInstance(spec, e.seed, fig5Roster), nil
		},
	},
	{
		name: "fig8-curve",
		why:  "Figure-8 fault injection into immortal blocks: scheme slope search and re-partitioning, with no wear and no bit-sliced path",
		setup: func(e env) (instance, error) {
			spec := simSpec{curve: true, calls: 5, trials: 100, minRounds: 5}
			if e.tiny {
				// 12 rounds of 9 calls leave 10 beyond p90.
				spec.calls, spec.trials, spec.minRounds = 1, 4, 12
			}
			return newSimInstance(spec, e.seed, fig8Roster), nil
		},
	},
	{
		name: "serve-mixed",
		why:  "aegisd closed loop of fresh and repeat jobs with an unbounded journal: HTTP, queue, journal, shard persist and cache load",
		setup: func(e env) (instance, error) {
			return newSvcInstance(svcSpec{}, e.seed, e.dir, e.logs)
		},
	},
	{
		name: "serve-bounded",
		why:  "the same jobs with a 256 KiB journal bound, reached within the first hundred jobs, so journal compaction does much of the work",
		setup: func(e env) (instance, error) {
			return newSvcInstance(svcSpec{journalMax: 256 << 10}, e.seed, e.dir, e.logs)
		},
	},
	{
		name: "cluster-mixed",
		why:  "the same jobs through a coordinator and two workers on loopback: the only workload with lease round trips",
		setup: func(e env) (instance, error) {
			return newSvcInstance(svcSpec{cluster: true}, e.seed, e.dir, e.logs)
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, ", "))
}

// A run sets a workload up at least minSetups times, and more while the
// set-ups took less than setupBudget in all, up to maxSetups: a set-up of
// a few milliseconds needs many samples for a steady median.  setup_s is
// that median; the last instance is the one measured.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// seed1Digests holds the canonical output digests of every workload at
// seed 1.
//
//go:embed testdata/seed1.json
var seed1Digests []byte

// childOpts are one workload run's settings.
type childOpts struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string // span file, appended to (traced runs only)
	dir     string
	tiny    bool
}

// workloadResult is one workload's outcome, as the child reports it.
type workloadResult struct {
	Name      string    `json:"name"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Digest    string    `json:"digest,omitempty"`
	Errors    []string  `json:"errors,omitempty"`
	Jobs      int       `json:"jobs"`
	Beyond90  int       `json:"samples_beyond_p90"`
	Metrics   metricSet `json:"metrics"`
}

func (r *workloadResult) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// runWorkload sets w up several times, measures one phase with tracing
// off, and checks its outputs.  A traced run then measures a second
// phase on a fresh instance with spans, log capture and /metrics scrapes
// on, followed by the probe.
func runWorkload(w workload, o childOpts) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Correct: true, Metrics: metricSet{}}
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		inst, err = w.setup(env{seed: o.seed, dir: filepath.Join(o.dir, strconv.Itoa(i)), tiny: o.tiny})
		if err != nil {
			return nil, fmt.Errorf("%s: set up: %w", w.name, err)
		}
		d := time.Since(t)
		spent += d
		setups = append(setups, d.Seconds())
	}
	ph, err := measure(inst, o.seconds, nil)
	if err != nil {
		inst.close()
		return nil, err
	}
	rss := peakRSSMB()
	if len(ph.rss) > 0 {
		rss = median(ph.rss)
	}
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if ph.failed > 0 {
		res.Correct = false
	}
	res.Jobs, res.Beyond90 = len(ph.lat), samplesBeyond(len(ph.lat), 90)
	res.Digest, err = inst.check()
	if err != nil {
		res.fail(err)
	} else if err := o.checkDigest(w.name, res.Digest); err != nil {
		res.fail(err)
	}
	if err := inst.close(); err != nil {
		return nil, err
	}
	if len(ph.lat) == 0 {
		return nil, fmt.Errorf("%s: no job completed", w.name)
	}
	if !o.traced {
		if res.Beyond90 < minBeyond {
			return nil, fmt.Errorf("%s: %d jobs leave %d samples beyond p90, fewer than the %d a tail percentile needs",
				w.name, res.Jobs, res.Beyond90, minBeyond)
		}
		n := float64(len(ph.lat))
		m := res.Metrics
		m.set(endToEnd, "setup_s", median(setups))
		m.set(endToEnd, "jobs_per_s", n/ph.wall)
		m.set(endToEnd, "job_p50_ms", nearestRank(ph.lat, 50))
		m.set(endToEnd, "job_p90_ms", nearestRank(ph.lat, 90))
		m.set(endToEnd, "cpu_ms_per_job", ph.proc.cpu*1000/n)
		m.set(endToEnd, "peak_rss_mb", rss)
		m.set(endToEnd, "sim_writes_per_s", float64(ph.writes)/ph.wall)
		return res, nil
	}

	tr := &tracer{trace: w.name, spans: &spanStore{}, logs: &logSink{}}
	inst, err = w.setup(env{seed: o.seed, dir: filepath.Join(o.dir, "traced"), logs: tr.logs, tiny: o.tiny})
	if err != nil {
		return nil, fmt.Errorf("%s: set up traced: %w", w.name, err)
	}
	defer inst.close()
	tph, err := measure(inst, o.seconds, tr)
	if err != nil {
		return nil, err
	}
	if digest, err := inst.check(); err != nil {
		res.fail(fmt.Errorf("traced phase: %w", err))
	} else if digest != res.Digest {
		res.fail(errors.New("traced phase outputs differ from the untraced phase's"))
	}
	trials, shards, err := inst.probeInputs()
	if err != nil {
		return nil, err
	}
	probe, err := runProbe(trials, shards, filepath.Join(o.dir, "probe"))
	if err != nil {
		return nil, err
	}
	layerMetrics(res.Metrics, inst, ph, tph, tr, probe)
	if o.spans != "" {
		if err := appendJSONL(o.spans, tr.spans.spans()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkDigest compares a workload's output digest with the recorded one.
// Digests exist for seed 1 at full size only.
func (o childOpts) checkDigest(name, got string) error {
	if o.seed != 1 || o.tiny {
		return nil
	}
	var want map[string]string
	if err := json.Unmarshal(seed1Digests, &want); err != nil {
		return fmt.Errorf("testdata/seed1.json: %w", err)
	}
	if want[name] != got {
		return fmt.Errorf("seed-1 output digest %s, testdata/seed1.json has %q", got, want[name])
	}
	return nil
}

// procStats are process counters read around a phase.
type procStats struct {
	cpu      float64 // user+sys seconds, every thread
	alloc    uint64  // heap bytes allocated
	gcCycles uint32
	gcCPU    float64 // the runtime's estimate of GC CPU seconds
	allCPU   float64 // and of all CPU seconds
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	p := procStats{cpu: obs.ProcessCPUSeconds(), alloc: ms.TotalAlloc, gcCycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return p
}

func (p procStats) minus(q procStats) procStats {
	return procStats{cpu: p.cpu - q.cpu, alloc: p.alloc - q.alloc, gcCycles: p.gcCycles - q.gcCycles,
		gcCPU: p.gcCPU - q.gcCPU, allCPU: p.allCPU - q.allCPU}
}

func measure(inst instance, seconds float64, tr *tracer) (*phase, error) {
	before := readProc()
	ph, err := inst.run(seconds, tr)
	if err != nil {
		return nil, err
	}
	ph.proc = readProc().minus(before)
	return ph, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS sets the process's peak RSS (VmHWM) back to its current
// RSS, so the next read covers only what ran since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
