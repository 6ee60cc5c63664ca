package sim

import (
	"fmt"
	"reflect"
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/obs"
	"aegis/internal/scheme"
)

// slicedRoster is every scheme family with a sliced implementation,
// each built fresh per arm of a differential run.
func slicedRoster() []struct {
	name string
	make func() scheme.Factory
} {
	return []struct {
		name string
		make func() scheme.Factory
	}{
		{"none", func() scheme.Factory { return scheme.NoneFactory{Bits: 64} }},
		{"aegis", func() scheme.Factory { return core.MustFactory(64, 11) }},
		{"ecp", func() scheme.Factory { return ecp.MustFactory(64, 4) }},
	}
}

// laneSweep is the lane widths the differential tests pin against the
// scalar path.  7, 63 and 64 run the bit-sliced mode and leave a
// clamped remainder group at 70 trials (the lanes-don't-divide-trials
// path); 0 is the default, which runs scalar.
var laneSweep = []int{0, 7, 63, 64}

func slicedConfig(trials, lanes, workers int) Config {
	return Config{
		BlockBits: 64,
		PageBytes: 64, // 8 blocks per page
		MeanLife:  60,
		CoV:       0.25,
		Trials:    trials,
		Seed:      4321,
		Workers:   workers,
		Lanes:     lanes,
	}
}

// TestSlicedMatchesScalarBlocks pins the tentpole invariant at block
// granularity: for every sliced scheme and every lane width, results,
// operation counters and histograms are byte-identical to the scalar
// path (Lanes=1).
func TestSlicedMatchesScalarBlocks(t *testing.T) {
	const trials = 70
	for _, entry := range slicedRoster() {
		t.Run(entry.name, func(t *testing.T) {
			cfgS := slicedConfig(trials, 1, 1)
			obsS := obs.NewRegistry()
			cfgS.Obs = obsS
			want := Blocks(entry.make(), cfgS)
			for _, lanes := range laneSweep {
				t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
					cfg := slicedConfig(trials, lanes, 3)
					reg := obs.NewRegistry()
					cfg.Obs = reg
					got := Blocks(entry.make(), cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("sliced block results diverge from scalar:\nsliced: %+v\nscalar: %+v", got, want)
					}
					if a, b := reg.Snapshot(), obsS.Snapshot(); !reflect.DeepEqual(a, b) {
						t.Fatalf("sliced counters diverge from scalar:\nsliced: %+v\nscalar: %+v", a, b)
					}
					if a, b := reg.HistSnapshot(), obsS.HistSnapshot(); !reflect.DeepEqual(a, b) {
						t.Fatalf("sliced histograms diverge from scalar:\nsliced: %+v\nscalar: %+v", a, b)
					}
				})
			}
		})
	}
}

// TestSlicedMatchesScalarPages pins the same invariant at page
// granularity, where lanes retire mid-round and many block slots share
// the lockstep group.
func TestSlicedMatchesScalarPages(t *testing.T) {
	const trials = 70
	for _, entry := range slicedRoster() {
		t.Run(entry.name, func(t *testing.T) {
			cfgS := slicedConfig(trials, 1, 1)
			obsS := obs.NewRegistry()
			cfgS.Obs = obsS
			want := Pages(entry.make(), cfgS)
			for _, lanes := range laneSweep {
				t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
					cfg := slicedConfig(trials, lanes, 3)
					reg := obs.NewRegistry()
					cfg.Obs = reg
					got := Pages(entry.make(), cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("sliced page results diverge from scalar:\nsliced: %+v\nscalar: %+v", got, want)
					}
					if a, b := reg.Snapshot(), obsS.Snapshot(); !reflect.DeepEqual(a, b) {
						t.Fatalf("sliced counters diverge from scalar:\nsliced: %+v\nscalar: %+v", a, b)
					}
					if a, b := reg.HistSnapshot(), obsS.HistSnapshot(); !reflect.DeepEqual(a, b) {
						t.Fatalf("sliced histograms diverge from scalar:\nsliced: %+v\nscalar: %+v", a, b)
					}
				})
			}
		})
	}
}

// TestSlicedMaxWrites pins the MaxWrites safety valve on the sliced
// path: capped lanes report the capped lifetime without a death.
func TestSlicedMaxWrites(t *testing.T) {
	for _, entry := range slicedRoster() {
		cfgS := slicedConfig(66, 1, 1)
		cfgS.MaxWrites = 7
		want := Blocks(entry.make(), cfgS)
		cfg := slicedConfig(66, 64, 1)
		cfg.MaxWrites = 7
		got := Blocks(entry.make(), cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MaxWrites-capped sliced results diverge:\nsliced: %+v\nscalar: %+v", entry.name, got, want)
		}
	}
}

// TestSlicedTrialOffset pins shard composability: a run split at an
// arbitrary boundary, each part sliced with TrialOffset (as the shard
// engine does), concatenates to the unsharded scalar run.
func TestSlicedTrialOffset(t *testing.T) {
	const trials, cut = 70, 23
	for _, entry := range slicedRoster() {
		cfgS := slicedConfig(trials, 1, 1)
		want := Blocks(entry.make(), cfgS)
		lo := slicedConfig(cut, 64, 1)
		hi := slicedConfig(trials-cut, 64, 1)
		hi.TrialOffset = cut
		got := append(Blocks(entry.make(), lo), Blocks(entry.make(), hi)...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sharded sliced concatenation diverges from scalar run", entry.name)
		}
	}
}

// TestLaneGroups is the direct unit test of the splitTrials-style
// clamp: a group never spans more trials than remain, so a shard tail
// with fewer trials than Lanes yields one small group and no trial
// changes its lane assignment.
func TestLaneGroups(t *testing.T) {
	cases := []struct {
		n, lanes int
		want     [][2]int
	}{
		{0, 64, nil},
		{-3, 64, nil},
		{5, 64, [][2]int{{0, 5}}}, // Lanes > remaining trials in a shard tail
		{64, 64, [][2]int{{0, 64}}},
		{70, 64, [][2]int{{0, 64}, {64, 70}}},
		{130, 64, [][2]int{{0, 64}, {64, 128}, {128, 130}}},
		{10, 7, [][2]int{{0, 7}, {7, 10}}},
		{14, 7, [][2]int{{0, 7}, {7, 14}}},
	}
	for _, tc := range cases {
		got := laneGroups(tc.n, tc.lanes)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("laneGroups(%d, %d) = %v, want %v", tc.n, tc.lanes, got, tc.want)
		}
	}
}

// TestSlicePlan pins the dispatch policy: the default (0) and 1 run
// scalar at every trial count, with or without a trace attached;
// explicit widths slice everything (clamped at 64); and the scalar
// fallbacks (unsliced scheme, pulse wear, tracing) disable an explicit
// width.
func TestSlicePlan(t *testing.T) {
	sliceable := scheme.NoneFactory{Bits: 64}
	for _, lanes := range []int{0, 1} {
		for _, trials := range []int{63, 64, 70, 128} {
			cfg := slicedConfig(trials, lanes, 1)
			if _, groups := cfg.slicePlan(sliceable); groups != nil {
				t.Fatalf("lanes=%d plan for %d trials = %v, want scalar", lanes, trials, groups)
			}
			cfg.Trace = &obs.EventWriter{}
			if _, groups := cfg.slicePlan(sliceable); groups != nil {
				t.Fatalf("lanes=%d traced plan for %d trials = %v, want scalar", lanes, trials, groups)
			}
		}
	}
	cfg := slicedConfig(70, 7, 1)
	if _, groups := cfg.slicePlan(sliceable); len(groups) != 10 || groups[9] != [2]int{63, 70} {
		t.Fatalf("explicit lanes=7 plan = %v, want 10 sliced groups", groups)
	}
	cfg.Lanes = 64
	if _, groups := cfg.slicePlan(sliceable); !reflect.DeepEqual(groups, [][2]int{{0, 64}, {64, 70}}) {
		t.Fatalf("explicit lanes=64 plan = %v, want a full group and a clamped one", groups)
	}
	cfg.Lanes = 1000
	if _, groups := cfg.slicePlan(sliceable); !reflect.DeepEqual(groups, [][2]int{{0, 64}, {64, 70}}) {
		t.Fatalf("lanes>64 should clamp to 64, got %v", groups)
	}
	cfg.Lanes = 64
	cfg.PulseWear = true
	if _, groups := cfg.slicePlan(sliceable); groups != nil {
		t.Fatal("PulseWear must force the scalar path")
	}
	cfg.PulseWear = false
	cfg.Trace = &obs.EventWriter{}
	if _, groups := cfg.slicePlan(sliceable); groups != nil {
		t.Fatal("event tracing must force the scalar path")
	}
	cfg.Trace = nil
	if _, groups := cfg.slicePlan(freshFactory{sliceable}); groups != nil {
		t.Fatal("schemes without a sliced implementation must fall back to scalar")
	}
}
