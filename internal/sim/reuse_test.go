package sim

import (
	"aegis/internal/xrand"
	"fmt"
	"reflect"
	"testing"

	"aegis/internal/aegisrw"
	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/dist"
	"aegis/internal/ecc"
	"aegis/internal/ecp"
	"aegis/internal/failcache"
	"aegis/internal/obs"
	"aegis/internal/pcm"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
)

// reuseRoster builds one factory per scheme family the simulator runs.
// Each call constructs fresh factories (fresh fail caches, fresh block
// ID counters) so the two arms of a differential test don't share
// state.
func reuseRoster() []struct {
	name string
	make func() scheme.Factory
} {
	return []struct {
		name string
		make func() scheme.Factory
	}{
		{"none", func() scheme.Factory { return scheme.NoneFactory{Bits: 64} }},
		{"aegis", func() scheme.Factory { return core.MustFactory(64, 11) }},
		{"aegis-p", func() scheme.Factory { return core.MustPFactory(64, 11, 3) }},
		{"aegis-rw", func() scheme.Factory { return aegisrw.MustRWFactory(64, 11, failcache.Perfect{}) }},
		{"aegis-rw-dm", func() scheme.Factory {
			return aegisrw.MustRWFactory(64, 11, failcache.NewDirectMapped(32))
		}},
		{"aegis-rw-p", func() scheme.Factory { return aegisrw.MustRWPFactory(64, 11, 3, failcache.Perfect{}) }},
		{"ecp", func() scheme.Factory { return ecp.MustFactory(64, 4) }},
		{"safer", func() scheme.Factory { return safer.MustFactory(64, 16) }},
		{"safer-cache", func() scheme.Factory { return safer.MustCachedFactory(64, 16, failcache.Perfect{}) }},
		{"rdis", func() scheme.Factory { return rdis.MustFactory(64, 3, failcache.Perfect{}) }},
		// Eight words: fields at address bits 6 and above select words.
		{"safer-cache-512", func() scheme.Factory { return safer.MustCachedFactory(512, 64, failcache.Perfect{}) }},
		{"hamming", func() scheme.Factory { return ecc.MustFactory(64) }},
	}
}

// freshFactory wraps a factory so its schemes never satisfy
// scheme.Resettable, forcing the simulator onto the construct-per-trial
// path.  Operation reporting and tracing are forwarded so the two arms
// of a differential run drain identical counters.
type freshFactory struct{ scheme.Factory }

func (f freshFactory) New() scheme.Scheme { return &freshScheme{inner: f.Factory.New()} }

type freshScheme struct{ inner scheme.Scheme }

func (s *freshScheme) Name() string      { return s.inner.Name() }
func (s *freshScheme) OverheadBits() int { return s.inner.OverheadBits() }
func (s *freshScheme) Write(blk *pcm.Block, data *bitvec.Vector) error {
	return s.inner.Write(blk, data)
}
func (s *freshScheme) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	return s.inner.Read(blk, dst)
}
func (s *freshScheme) OpStats() scheme.OpStats {
	if rep, ok := s.inner.(scheme.OpReporter); ok {
		return rep.OpStats()
	}
	return scheme.OpStats{}
}
func (s *freshScheme) SetTracer(t scheme.Tracer) {
	if tb, ok := s.inner.(scheme.Traceable); ok {
		tb.SetTracer(t)
	}
}

func reuseConfig(f scheme.Factory, trials int) Config {
	return Config{
		BlockBits: f.BlockBits(),
		PageBytes: f.BlockBits(), // 8 blocks per page
		MeanLife:  60,
		CoV:       0.25,
		Trials:    trials,
		Seed:      1234,
		Workers:   1,
	}
}

// TestReuseMatchesFreshBlocks pins the tentpole equivalence: the
// simulator's scheme/block reuse produces byte-identical block results
// and observability counters to constructing everything per trial.
func TestReuseMatchesFreshBlocks(t *testing.T) {
	for _, entry := range reuseRoster() {
		t.Run(entry.name, func(t *testing.T) {
			facA, facB := entry.make(), entry.make()
			cfgA, cfgB := reuseConfig(facA, 10), reuseConfig(facB, 10)
			obsA, obsB := obs.NewRegistry(), obs.NewRegistry()
			cfgA.Obs, cfgB.Obs = obsA, obsB
			resA := Blocks(facA, cfgA)
			resB := Blocks(freshFactory{facB}, cfgB)
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("reused and fresh block results diverge:\nreused: %+v\nfresh:  %+v", resA, resB)
			}
			if a, b := obsA.Snapshot(), obsB.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("reused and fresh counters diverge:\nreused: %+v\nfresh:  %+v", a, b)
			}
		})
	}
}

// TestReuseMatchesFreshPages covers the page granularity, where one
// worker cycles many scheme/block slots per trial.
func TestReuseMatchesFreshPages(t *testing.T) {
	for _, entry := range reuseRoster() {
		t.Run(entry.name, func(t *testing.T) {
			facA, facB := entry.make(), entry.make()
			resA := Pages(facA, reuseConfig(facA, 4))
			resB := Pages(freshFactory{facB}, reuseConfig(facB, 4))
			if !reflect.DeepEqual(resA, resB) {
				t.Fatalf("reused and fresh page results diverge:\nreused: %+v\nfresh:  %+v", resA, resB)
			}
		})
	}
}

// TestReuseMatchesFreshFailureCounts covers the fault-injection probe
// (immortal blocks, rng.Perm stream).
func TestReuseMatchesFreshFailureCounts(t *testing.T) {
	for _, entry := range reuseRoster() {
		t.Run(entry.name, func(t *testing.T) {
			facA, facB := entry.make(), entry.make()
			a := FailureCounts(facA, reuseConfig(facA, 12), 8, 4, 0.5)
			b := FailureCounts(freshFactory{facB}, reuseConfig(facB, 12), 8, 4, 0.5)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("reused and fresh failure counts diverge:\nreused: %v\nfresh:  %v", a, b)
			}
		})
	}
}

// dirtyScheme drives a scheme through junk writes on a throwaway block,
// leaving both the instance and its factory's shared fail cache in a
// used state.
func dirtyScheme(s scheme.Scheme, n int, seed int64) {
	d := dist.Normal{MeanLife: 50, CoV: 0.25}
	rng := xrand.New(seed ^ 0x5eed)
	junk := pcm.NewBlock(n, d, rng)
	data := bitvec.New(n)
	for i := 0; i < 60; i++ {
		bitvec.RandomInto(data, rng)
		junk.BeginRequest()
		err := s.Write(junk, data)
		junk.EndRequest()
		if err != nil {
			return
		}
	}
}

// checkResetEquivalence pins the Resettable contract: after Reset, a
// reused instance must behave bit-for-bit like one the factory would
// construct at that moment.  Each arm gets its own (identical) factory
// warmed by the same junk-write phase, so shared fail-cache state and
// block-ID sequences line up; the measured instances are then driven
// through identical write sequences on identically seeded blocks.  Any
// divergence in write outcomes, decoded reads, operation counters, or
// block state fails the property.
func checkResetEquivalence(t *testing.T, mk func() scheme.Factory, seed int64) {
	t.Helper()
	facA, facB := mk(), mk()
	fac := facA
	n := fac.BlockBits()
	d := dist.Normal{MeanLife: 50, CoV: 0.25}

	// Arm A: warm the factory with a throwaway instance, then measure a
	// genuinely fresh one (block ID 1).
	dirtyScheme(facA.New(), n, seed)
	fresh := facA.New()

	// Arm B: dirty one instance the same way, then Reset and measure
	// that same instance (Reset draws a fresh view: block ID 1 too).
	reused := facB.New()
	dirtyScheme(reused, n, seed)
	r, ok := reused.(scheme.Resettable)
	if !ok {
		t.Fatalf("%s does not implement scheme.Resettable", fac.Name())
	}
	r.Reset()

	rngA := xrand.New(seed)
	rngB := xrand.New(seed)
	blkA := pcm.NewBlock(n, d, rngA)
	blkB := pcm.NewBlock(n, d, rngB)
	dataA, dataB := bitvec.New(n), bitvec.New(n)
	var readA, readB *bitvec.Vector
	for w := 0; w < 300; w++ {
		bitvec.RandomInto(dataA, rngA)
		bitvec.RandomInto(dataB, rngB)
		blkA.BeginRequest()
		errA := fresh.Write(blkA, dataA)
		blkA.EndRequest()
		blkB.BeginRequest()
		errB := reused.Write(blkB, dataB)
		blkB.EndRequest()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s write %d: fresh err=%v, reused err=%v", fac.Name(), w, errA, errB)
		}
		if errA != nil {
			break
		}
		readA = fresh.Read(blkA, readA)
		readB = reused.Read(blkB, readB)
		if !readA.Equal(readB) {
			t.Fatalf("%s write %d: decoded reads diverge", fac.Name(), w)
		}
	}
	repA, okA := fresh.(scheme.OpReporter)
	repB, okB := reused.(scheme.OpReporter)
	if okA != okB {
		t.Fatalf("%s: OpReporter asymmetry between fresh and reused", fac.Name())
	}
	if okA && repA.OpStats() != repB.OpStats() {
		t.Fatalf("%s: op stats diverge:\nfresh:  %+v\nreused: %+v", fac.Name(), repA.OpStats(), repB.OpStats())
	}
	if blkA.Stats() != blkB.Stats() {
		t.Fatalf("%s: block stats diverge:\nfresh:  %+v\nreused: %+v", fac.Name(), blkA.Stats(), blkB.Stats())
	}
	if !blkA.StuckMask(nil).Equal(blkB.StuckMask(nil)) {
		t.Fatalf("%s: stuck masks diverge", fac.Name())
	}
}

// TestResetEquivalenceProperty runs the reset-equivalence property over
// every scheme with a spread of seeds.  The race CI job runs this
// package, so reuse is also exercised under the race detector.
func TestResetEquivalenceProperty(t *testing.T) {
	for _, entry := range reuseRoster() {
		t.Run(entry.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				checkResetEquivalence(t, entry.make, seed)
			}
		})
	}
}

// FuzzResetEquivalence lets the fuzzer hunt for write sequences where a
// reset instance diverges from a fresh one (go test -fuzz=FuzzReset).
func FuzzResetEquivalence(f *testing.F) {
	roster := reuseRoster()
	// Seed corpus IDs (seed#k) number the f.Add calls.  The ten 64-bit
	// entries are seeded first and in their original order, so entries
	// appended to the roster later leave those IDs where they were.
	const first = 10
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < first; i++ {
			f.Add(seed, i)
		}
	}
	for i := first; i < len(roster); i++ {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(seed, i)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, which int) {
		if which < 0 {
			which = -which
		}
		entry := roster[which%len(roster)]
		t.Run(fmt.Sprintf("%s/seed=%d", entry.name, seed), func(t *testing.T) {
			checkResetEquivalence(t, entry.make, seed)
		})
	})
}
