package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/failcache"
	"aegis/internal/obs"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// simSpec sizes a simulation workload.  Its rosters are rebuilt here
// from the public constructors with the scheme lineups of
// internal/experiments/rosters.go.
type simSpec struct {
	curve bool
	// Page study (fig5-pages): pages per call and cell endurance.
	pages    int
	meanLife float64
	// Fault injection (fig8-curve): calls per scheme per round and
	// trials per call.  The calls of one scheme cover consecutive trial
	// ranges, so together they are one FailureCounts run.
	calls  int
	trials int
	// minRounds is the fewest rounds a phase runs, whatever its time
	// budget, so that its p90 call latency has samples beyond it.
	minRounds int
}

// blockSample is how many blocks per roster entry the fig5 check writes
// to death one by one, to hold each block to its scheme's hard FTC.
const blockSample = 16

const (
	fig8MaxFaults     = 30
	fig8WritesPerStep = 8
	fig8Bias          = 0.5
)

// perfect is the idealized fail cache the paper grants RDIS and the
// -cache variants.
var perfect = failcache.Perfect{}

// fig5Roster is Figure 5's two lineups, each led by its unprotected
// baseline: 8 factories at 256 bits, 14 at 512 bits.
func fig5Roster() []scheme.Factory {
	return []scheme.Factory{
		scheme.NoneFactory{Bits: 256},
		ecp.MustFactory(256, 4),
		ecp.MustFactory(256, 6),
		safer.MustFactory(256, 32),
		safer.MustFactory(256, 64),
		rdis.MustFactory(256, 3, perfect),
		core.MustFactory(256, 23),
		core.MustFactory(256, 31),
		scheme.NoneFactory{Bits: 512},
		ecp.MustFactory(512, 4),
		ecp.MustFactory(512, 5),
		ecp.MustFactory(512, 6),
		safer.MustFactory(512, 32),
		safer.MustFactory(512, 64),
		safer.MustFactory(512, 128),
		safer.MustCachedFactory(512, 32, perfect),
		safer.MustCachedFactory(512, 64, perfect),
		safer.MustCachedFactory(512, 128, perfect),
		rdis.MustFactory(512, 3, perfect),
		core.MustFactory(512, 23),
		core.MustFactory(512, 31),
		core.MustFactory(512, 61),
	}
}

// fig8Roster is Figure 8's 512-bit lineup.
func fig8Roster() []scheme.Factory {
	return []scheme.Factory{
		ecp.MustFactory(512, 6),
		safer.MustFactory(512, 32),
		safer.MustFactory(512, 64),
		safer.MustFactory(512, 128),
		safer.MustCachedFactory(512, 64, perfect),
		safer.MustCachedFactory(512, 128, perfect),
		rdis.MustFactory(512, 3, perfect),
		core.MustFactory(512, 31),
		core.MustFactory(512, 61),
	}
}

// family maps a scheme's display name to its per-family metric suffix.
func family(name string) string {
	for _, p := range []struct{ prefix, fam string }{
		{"None", "none"}, {"ECP", "ecp"}, {"SAFER", "safer"}, {"RDIS", "rdis"}, {"Aegis", "aegis"},
	} {
		if strings.HasPrefix(name, p.prefix) {
			return p.fam
		}
	}
	return "other"
}

// hardFTC is the fault count a roster scheme guarantees to survive
// whatever the fault positions and data: plane.Layout.HardFTC for Aegis,
// the entry count for ECP, m+1 for SAFER with 2^m groups, and 3 for
// RDIS-3.
func hardFTC(f scheme.Factory) int {
	switch f := f.(type) {
	case *ecp.Factory:
		return f.Entries
	case *safer.Factory:
		return bits.Len(uint(f.Groups)-1) + 1
	case *safer.CachedFactory:
		return bits.Len(uint(f.Groups)-1) + 1
	case *rdis.Factory:
		return 3
	case *core.Factory:
		return f.L.HardFTC()
	}
	return 0 // None
}

// deriveSeed gives every (run seed, round, call) its own simulation seed.
func deriveSeed(seed int64, round int, key string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s", seed, round, key)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// simCall is one request of a simulation workload.
type simCall struct {
	f     scheme.Factory
	cfg   sim.Config
	curve bool
}

// simResult is one completed call.
type simResult struct {
	call   simCall
	round  int
	start  time.Time
	dur    time.Duration
	pages  []sim.PageResult
	dead   []int
	counts obs.Totals
}

// eligible reports whether the call takes the bit-sliced path under the
// default lane policy: a sliced-capable scheme with full 64-trial groups
// (fault injection is always scalar).
func (c simCall) eligible() bool {
	_, ok := c.f.(scheme.SlicedFactory)
	return ok && !c.curve && c.cfg.Trials >= 64
}

func (c simCall) kind() string {
	if c.curve {
		return "curve"
	}
	return "pages"
}

// run executes the call against a private registry, so its operation
// counts are kept per call.  Only their totals outlive the call, so a
// phase holds no registry per call.
func (c simCall) run() simResult {
	reg := obs.NewRegistry()
	cfg := c.cfg
	cfg.Obs = reg
	r := simResult{call: c, start: time.Now()}
	if c.curve {
		r.dead = sim.FailureCounts(c.f, cfg, fig8MaxFaults, fig8WritesPerStep, fig8Bias)
	} else {
		r.pages = sim.Pages(c.f, cfg)
	}
	r.dur = time.Since(r.start)
	r.counts = totals(reg)
	return r
}

// simInstance is a set-up simulation workload: the roster is built and
// every scheme has run one warm-up trial.
type simInstance struct {
	spec    simSpec
	seed    int64
	roster  []scheme.Factory
	results []simResult
}

func newSimInstance(spec simSpec, seed int64, roster func() []scheme.Factory) *simInstance {
	in := &simInstance{spec: spec, seed: seed, roster: roster()}
	for _, f := range in.roster {
		c := in.call(f, -1, 0)
		c.cfg.Trials = 1
		c.run()
	}
	return in
}

// call builds the i-th call of scheme f in a round (round -1 is the
// warm-up).
func (in *simInstance) call(f scheme.Factory, round, i int) simCall {
	key := fmt.Sprintf("%s/%d", f.Name(), f.BlockBits())
	cfg := sim.Config{
		BlockBits: f.BlockBits(),
		PageBytes: 4096,
		MeanLife:  in.spec.meanLife,
		CoV:       0.25,
		Seed:      deriveSeed(in.seed, round, key),
	}
	if in.spec.curve {
		cfg.Trials = in.spec.trials
		cfg.TrialOffset = i * in.spec.trials
	} else {
		cfg.Trials = in.spec.pages
	}
	return simCall{f: f, cfg: cfg, curve: in.spec.curve}
}

// round lists the calls of one round: every roster entry, in order.
func (in *simInstance) round(r int) []simCall {
	var calls []simCall
	for _, f := range in.roster {
		n := 1
		if in.spec.curve {
			n = in.spec.calls
		}
		for i := 0; i < n; i++ {
			calls = append(calls, in.call(f, r, i))
		}
	}
	return calls
}

// run measures whole rounds, at least spec.minRounds of them, until the
// round boundary nearest to the time budget, so every phase covers the
// roster mix in equal parts.
//
// Each round starts from a collected heap returned to the OS, as a
// figure run in a fresh process would, and its peak RSS is read at its
// end.  The process-wide peak of a phase is the largest of many heap
// goals and scatters widely from run to run.  Two collections empty the
// sync.Pool victim caches that would otherwise carry the previous
// round's bit-sliced scratch into the next round's peak.
func (in *simInstance) run(seconds float64, tr *tracer) (*phase, error) {
	ph := &phase{}
	in.results = in.results[:0]
	var root int
	if tr != nil {
		root = tr.spans.add(tr.trace, "workload", 0, time.Now(), time.Now())
	}
	start := time.Now()
	for r := 0; ; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		for _, c := range in.round(r) {
			res := c.run()
			res.round = r
			in.results = append(in.results, res)
			ph.lat = append(ph.lat, float64(res.dur)/float64(time.Millisecond))
			ph.writes += res.counts.Writes
			if tr != nil {
				tr.spans.add(tr.trace, "sim.call", root, res.start, res.start.Add(res.dur))
			}
		}
		ph.rss = append(ph.rss, peakRSSMB())
		elapsed := time.Since(start).Seconds()
		if r+1 >= in.spec.minRounds && elapsed+elapsed/float64(r+1)/2 >= seconds {
			break
		}
	}
	ph.wall = time.Since(start).Seconds()
	ph.attempted = len(in.results)
	if tr != nil {
		tr.spans.setEnd(root, time.Now())
	}
	return ph, nil
}

func totals(reg *obs.Registry) obs.Totals {
	var t obs.Totals
	for _, v := range reg.Snapshot() {
		t = t.Plus(v)
	}
	return t
}

// check verifies every call's output against the hard-FTC guarantees:
// a fig8 curve is zero up to the hard FTC and never decreases, and a
// fig5 page cannot die before one of its blocks exceeds its scheme's
// hard FTC.  A page's fault total spans all its blocks, so on fig5 it
// also writes a sample of single blocks of each round-0 call to death
// and holds every one to its hard FTC, and it reruns each round-0 call
// that took the bit-sliced path on the scalar path, which must give
// identical pages.  It returns the canonical digest of round 0.
func (in *simInstance) check() (string, error) {
	for _, r := range in.results {
		name, ftc := r.call.f.Name(), hardFTC(r.call.f)
		if r.call.curve {
			for nf := 1; nf < len(r.dead); nf++ {
				if nf <= ftc && r.dead[nf] != 0 {
					return "", fmt.Errorf("%s: %d of %d blocks dead at %d faults, within the hard FTC of %d",
						name, r.dead[nf], r.call.cfg.Trials, nf, ftc)
				}
				if r.dead[nf] < r.dead[nf-1] {
					return "", fmt.Errorf("%s: failure count falls from %d to %d at %d faults", name, r.dead[nf-1], r.dead[nf], nf)
				}
			}
			continue
		}
		for i, p := range r.pages {
			if p.RecoveredFaults < ftc+1 {
				return "", fmt.Errorf("%s %d-bit: page %d died with %d faults, within the hard FTC of %d",
					name, r.call.cfg.BlockBits, i, p.RecoveredFaults, ftc)
			}
		}
		if r.round != 0 {
			continue
		}
		cfg := r.call.cfg
		cfg.Trials = blockSample
		if err := checkBlocks(r.call.f, sim.Blocks(r.call.f, cfg)); err != nil {
			return "", err
		}
		if r.call.eligible() {
			cfg = r.call.cfg
			cfg.Lanes = 1
			if !reflect.DeepEqual(sim.Pages(r.call.f, cfg), r.pages) {
				return "", fmt.Errorf("%s %d-bit: bit-sliced pages differ from the scalar path's", name, cfg.BlockBits)
			}
		}
	}
	return in.digest()
}

// checkBlocks holds every block written to death under f to f's hard
// FTC: no block may die with that many faults or fewer.
func checkBlocks(f scheme.Factory, blocks []sim.BlockResult) error {
	ftc := hardFTC(f)
	for i, b := range blocks {
		if b.FaultsAtDeath < ftc+1 {
			return fmt.Errorf("%s %d-bit: block %d died with %d faults, within the hard FTC of %d",
				f.Name(), f.BlockBits(), i, b.FaultsAtDeath, ftc)
		}
	}
	return nil
}

// digest hashes round 0's outputs: page results or failure counts, in
// call order.
func (in *simInstance) digest() (string, error) {
	type out struct {
		Scheme string           `json:"scheme"`
		Bits   int              `json:"bits"`
		Lo     int              `json:"trial_lo"`
		Pages  []sim.PageResult `json:"pages,omitempty"`
		Dead   []int            `json:"dead,omitempty"`
	}
	var outs []out
	for _, r := range in.results {
		if r.round == 0 {
			outs = append(outs, out{r.call.f.Name(), r.call.cfg.BlockBits, r.call.cfg.TrialOffset, r.pages, r.dead})
		}
	}
	data, err := json.Marshal(outs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (in *simInstance) close() error { return nil }
