package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aegis/internal/obs"
	"aegis/internal/sim"
)

// ErrCorruptShard marks a cache file that could not be parsed at all —
// e.g. a truncated write from a killed run.  The engine treats it as a
// plain cache miss and recomputes; structured disagreements (wrong
// schema, key or config hash) are hard errors instead.
var ErrCorruptShard = errors.New("engine: corrupt shard file")

// ShardSchema identifies the shard file format.  Bump the suffix on any
// backwards-incompatible change; the loader refuses files whose schema
// differs with an obs.SchemaMismatch error.
const ShardSchema = "aegis.shard/v1"

// Shard kinds: which simulation produced the payload.
const (
	KindBlocks = "blocks"
	KindPages  = "pages"
	KindCurve  = "curve"
	// KindTraffic is the write-traffic probe (sim.TrafficSums).
	KindTraffic = "traffic"
)

// Shard is one persisted slice of a Monte Carlo run: the results of the
// trial range [TrialLo, TrialHi) of one scheme under one configuration,
// plus the operation counters and histograms those trials produced.
// Shards of the same run merge into the full result (Merge); the
// content-addressed Key makes an unchanged rerun find them on disk.
type Shard struct {
	Schema string `json:"schema"`
	// Key is the shard's content address (ShardKey); the file is stored
	// as <cache-dir>/<key>.json.
	Key string `json:"key"`
	// ConfigHash identifies the result-affecting simulation parameters
	// (ConfigHash); shards merge only when it agrees.
	ConfigHash string `json:"config_hash"`
	Scheme     string `json:"scheme"`
	Kind       string `json:"kind"`
	TrialLo    int    `json:"trial_lo"`
	TrialHi    int    `json:"trial_hi"`
	// CodeVersion is the git revision the producing binary was built
	// from (obs.GitSHA); it is folded into Key, so shards never survive
	// a code change.
	CodeVersion string    `json:"code_version"`
	CreatedAt   time.Time `json:"created_at"`

	// Exactly one payload is set, matching Kind.
	Blocks []sim.BlockResult `json:"blocks,omitempty"`
	Pages  []sim.PageResult  `json:"pages,omitempty"`
	// Dead is the curve payload: Dead[nf] counts trials unrecoverable
	// at ≤ nf injected faults (sim.FailureCounts).
	Dead []int `json:"dead,omitempty"`
	// Traffic is the traffic payload: Traffic[nf] sums the operation
	// counts of the steps blocks survived at nf faults (sim.TrafficSums).
	Traffic []sim.TrafficSum `json:"traffic,omitempty"`

	// Counters and Histograms carry the per-shard observability deltas,
	// so a resumed run reports the same totals as an uninterrupted one.
	Counters   obs.Totals       `json:"counters"`
	Histograms obs.HistSnapshot `json:"histograms"`
}

// Trials returns the number of trials the shard covers.
func (s *Shard) Trials() int { return s.TrialHi - s.TrialLo }

// keyConfig is the canonicalized, result-affecting subset of sim.Config
// (plus the fault-probe parameters): exactly the fields that change
// simulation outcomes.  Trials, TrialOffset, Workers, Lanes, Ctx and
// the observability sinks are deliberately absent — the trial range is
// keyed separately, and worker count, bit-sliced lane width,
// cancellation plumbing or telemetry must never alter results (the lane
// invariant is pinned by the sliced differential tests).
type keyConfig struct {
	BlockBits int     `json:"block_bits"`
	PageBytes int     `json:"page_bytes"`
	MeanLife  float64 `json:"mean_life"`
	CoV       float64 `json:"cov"`
	MaxWrites int64   `json:"max_writes"`
	Seed      int64   `json:"seed"`
	PulseWear bool    `json:"pulse_wear"`

	Kind          string  `json:"kind"`
	MaxFaults     int     `json:"max_faults,omitempty"`
	WritesPerStep int     `json:"writes_per_step,omitempty"`
	Bias          float64 `json:"bias,omitempty"`
}

// CurveParams carries the fault-probe parameters of curve and traffic
// runs through the engine (and across the cluster wire, where a lease
// must name the exact probe its shard covers); zero for block and page
// runs, and Bias is zero for traffic runs.
type CurveParams struct {
	MaxFaults     int     `json:"max_faults,omitempty"`
	WritesPerStep int     `json:"writes_per_step,omitempty"`
	Bias          float64 `json:"bias,omitempty"`
}

// ConfigHash derives the canonical hash of the result-affecting
// simulation parameters for one kind of run.  Two runs with equal
// hashes, equal scheme names and equal code versions produce identical
// trial streams.
func ConfigHash(cfg sim.Config, kind string, cp CurveParams) string {
	kc := keyConfig{
		BlockBits: cfg.BlockBits,
		PageBytes: cfg.PageBytes,
		MeanLife:  cfg.MeanLife,
		CoV:       cfg.CoV,
		MaxWrites: cfg.MaxWrites,
		Seed:      cfg.Seed,
		PulseWear: cfg.PulseWear,
		Kind:      kind,
	}
	if kind == KindCurve || kind == KindTraffic {
		kc.MaxFaults = cp.MaxFaults
		kc.WritesPerStep = cp.WritesPerStep
		kc.Bias = cp.Bias
	}
	data, err := json.Marshal(kc)
	if err != nil {
		// keyConfig contains only scalar fields; Marshal cannot fail.
		panic(fmt.Sprintf("engine: canonicalize config: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ShardKey derives a shard's content address: SHA-256 over the config
// hash, the scheme name, the trial range and the code version.  The key
// doubles as the cache file name, so any change to what the shard would
// contain lands at a fresh address and stale entries are simply never
// read.
func ShardKey(configHash, scheme string, lo, hi int, codeVersion string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nconfig:%s\nscheme:%s\ntrials:[%d,%d)\ncode:%s\n",
		ShardSchema, configHash, scheme, lo, hi, codeVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// shardPath maps a key into the cache directory.
func shardPath(cacheDir, key string) string {
	return filepath.Join(cacheDir, key+".json")
}

// WriteShard persists a shard to dir under its content-addressed name.
// The write goes through a temp file and rename, so an interrupted run
// never leaves a truncated shard for a resume to trip over.
func WriteShard(dir string, s *Shard) (path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path = shardPath(dir, s.Key)
	tmp, err := os.CreateTemp(dir, s.Key+".tmp*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, os.Rename(tmp.Name(), path)
}

// LoadShard reads a shard file and validates it against what the caller
// expects at that address.  A missing file returns os.ErrNotExist (a
// plain cache miss); any disagreement in schema, key, config hash,
// identity or payload size is an error (obs.SchemaMismatch for the
// schema) — the cache refuses to mix incompatible artifacts rather
// than silently recompute over them.
func LoadShard(path string, wantKey, wantHash, scheme, kind string, lo, hi int) (*Shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Shard
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w %s: %v", ErrCorruptShard, path, err)
	}
	if err := ValidateShard(&s, path, wantKey, wantHash, scheme, kind, lo, hi); err != nil {
		return nil, err
	}
	return &s, nil
}

// ValidateShard checks a parsed shard against what the caller expects
// at that address: schema, content key, config hash, identity and
// payload shape.  source names where the shard came from in error
// messages — a cache file path, or "worker <name>" for shards arriving
// over the cluster wire; any disagreement is refused with an error
// naming both sides, exactly like the cache loader (the coordinator
// must never merge a shard a worker mislabeled).
func ValidateShard(s *Shard, source, wantKey, wantHash, scheme, kind string, lo, hi int) error {
	if s.Schema != ShardSchema {
		return obs.SchemaMismatch(source, s.Schema, "this engine", ShardSchema,
			"delete the stale cache entry (or point -cache-dir elsewhere) and rerun to regenerate it")
	}
	if s.Key != wantKey {
		return fmt.Errorf("engine: shard %s declares key %.12s… but its address derives key %.12s… — the file was corrupted or renamed; delete it and rerun", source, s.Key, wantKey)
	}
	if s.ConfigHash != wantHash {
		return fmt.Errorf("engine: shard %s was produced under config %.12s… but this run's config hashes to %.12s… — delete the stale cache entry (or point -cache-dir elsewhere) and rerun", source, s.ConfigHash, wantHash)
	}
	if s.Scheme != scheme || s.Kind != kind || s.TrialLo != lo || s.TrialHi != hi {
		return fmt.Errorf("engine: shard %s covers %s/%s trials [%d,%d), want %s/%s [%d,%d)",
			source, s.Scheme, s.Kind, s.TrialLo, s.TrialHi, scheme, kind, lo, hi)
	}
	if err := s.checkPayload(); err != nil {
		return fmt.Errorf("engine: shard %s: %w", source, err)
	}
	return nil
}

// checkPayload verifies the payload matches the declared kind and range.
func (s *Shard) checkPayload() error {
	n := s.Trials()
	if n <= 0 {
		return fmt.Errorf("empty trial range [%d,%d)", s.TrialLo, s.TrialHi)
	}
	switch s.Kind {
	case KindBlocks:
		if len(s.Blocks) != n {
			return fmt.Errorf("%d block results for %d trials", len(s.Blocks), n)
		}
	case KindPages:
		if len(s.Pages) != n {
			return fmt.Errorf("%d page results for %d trials", len(s.Pages), n)
		}
	case KindCurve, KindTraffic:
		if s.probeLen() == 0 {
			return fmt.Errorf("%s shard with no counts", s.Kind)
		}
	default:
		return fmt.Errorf("unknown shard kind %q", s.Kind)
	}
	return nil
}

// Merge validates that the shards form one complete, compatible run and
// combines them: payloads are concatenated in trial order (curve counts
// and traffic sums are added), counters and histograms are added.
// Every disagreement — schema, config hash, scheme, kind, overlapping
// or gapped trial ranges — is refused with an error naming both sides,
// never papered over.
func Merge(shards []*Shard) (*Shard, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: merge of zero shards")
	}
	sorted := make([]*Shard, len(shards))
	copy(sorted, shards)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TrialLo < sorted[j].TrialLo })

	first := sorted[0]
	out := &Shard{
		Schema:      ShardSchema,
		ConfigHash:  first.ConfigHash,
		Scheme:      first.Scheme,
		Kind:        first.Kind,
		TrialLo:     first.TrialLo,
		TrialHi:     first.TrialHi,
		CodeVersion: first.CodeVersion,
		CreatedAt:   first.CreatedAt,
	}
	for i, s := range sorted {
		if s.Schema != first.Schema {
			return nil, obs.SchemaMismatch(shardDesc(first), first.Schema, shardDesc(s), s.Schema,
				"regenerate the cache with one engine version so every shard shares a schema")
		}
		if s.ConfigHash != first.ConfigHash {
			return nil, fmt.Errorf("engine: %s has config %.12s… but %s has %.12s… — shards of different configurations do not merge",
				shardDesc(first), first.ConfigHash, shardDesc(s), s.ConfigHash)
		}
		if s.Scheme != first.Scheme || s.Kind != first.Kind {
			return nil, fmt.Errorf("engine: cannot merge %s with %s", shardDesc(first), shardDesc(s))
		}
		if err := s.checkPayload(); err != nil {
			return nil, fmt.Errorf("engine: %s: %w", shardDesc(s), err)
		}
		if i > 0 {
			prev := sorted[i-1]
			if s.TrialLo != prev.TrialHi {
				return nil, fmt.Errorf("engine: shard ranges [%d,%d) and [%d,%d) are not contiguous — a shard is missing or duplicated",
					prev.TrialLo, prev.TrialHi, s.TrialLo, s.TrialHi)
			}
			out.TrialHi = s.TrialHi
		}
		out.Blocks = append(out.Blocks, s.Blocks...)
		out.Pages = append(out.Pages, s.Pages...)
		if i == 0 {
			out.Dead = append([]int(nil), s.Dead...)
			out.Traffic = append([]sim.TrafficSum(nil), s.Traffic...)
		} else if err := out.addProbe(s); err != nil {
			return nil, err
		}
		out.Counters = out.Counters.Plus(s.Counters)
		out.Histograms = out.Histograms.Plus(s.Histograms)
	}
	return out, nil
}

// addProbe adds a curve or traffic shard's counts into s's.
func (s *Shard) addProbe(o *Shard) error {
	if len(o.Dead) != len(s.Dead) || len(o.Traffic) != len(s.Traffic) {
		return fmt.Errorf("engine: %s shards disagree on fault range (%d vs %d counts)", s.Kind, s.probeLen(), o.probeLen())
	}
	for nf := range o.Dead {
		s.Dead[nf] += o.Dead[nf]
	}
	for nf, t := range o.Traffic {
		a := &s.Traffic[nf]
		a.Requests += t.Requests
		a.RawWrites += t.RawWrites
		a.VerifyReads += t.VerifyReads
		a.Repartitions += t.Repartitions
	}
	return nil
}

// probeLen is the length of a curve or traffic payload: one count per
// fault count 0…MaxFaults.
func (s *Shard) probeLen() int { return len(s.Dead) + len(s.Traffic) }

// shardDesc names a shard in error messages.
func shardDesc(s *Shard) string {
	return fmt.Sprintf("shard %s/%s[%d,%d)", s.Scheme, s.Kind, s.TrialLo, s.TrialHi)
}
