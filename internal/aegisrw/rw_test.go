package aegisrw

import (
	"aegis/internal/xrand"
	"errors"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestRWWriteReadNoFaults(t *testing.T) {
	f := MustRWFactory(512, 61, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(1)
	for i := 0; i < 20; i++ {
		data := bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
}

func TestRWToleratesSameTypeCollision(t *testing.T) {
	// Two stuck-at-1 faults in the same slope-0 group: base Aegis must
	// re-partition, but Aegis-rw may keep the group because both faults
	// are W together (for all-zero data) and one inversion fixes both.
	f := MustRWFactory(512, 23, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*RW)
	l := f.L
	x1, _ := l.Offset(0, 5)
	x2, _ := l.Offset(3, 5)
	blk.InjectFault(x1, true)
	blk.InjectFault(x2, true)

	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if s.Slope() != 0 {
		t.Fatalf("re-partitioned (slope=%d) although both faults are same-type", s.Slope())
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestRWSeparatesMixedPairs(t *testing.T) {
	f := MustRWFactory(512, 23, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*RW)
	l := f.L
	x1, _ := l.Offset(0, 5)
	x2, _ := l.Offset(3, 5)
	blk.InjectFault(x1, true)  // W for zero data
	blk.InjectFault(x2, false) // R for zero data

	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if l.Group(x1, s.Slope()) == l.Group(x2, s.Slope()) {
		t.Fatal("W and R fault share a group under the chosen slope")
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestRWHardFTCGuarantee(t *testing.T) {
	f := MustRWFactory(512, 31, failcache.Perfect{})
	ftc := f.L.HardFTCRW()
	rng := xrand.New(9)
	for trial := 0; trial < 40; trial++ {
		blk := pcm.NewImmortalBlock(512)
		s := f.New()
		for _, p := range rng.Perm(512)[:ftc] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 10; w++ {
			data := bitvec.Random(512, rng)
			if err := s.Write(blk, data); err != nil {
				t.Fatalf("trial %d: write failed with %d = hardFTC-rw faults: %v", trial, ftc, err)
			}
			if !s.Read(blk, nil).Equal(data) {
				t.Fatalf("trial %d: read differs", trial)
			}
		}
	}
}

func TestRWBeatsBaseAegisOnRecoverableFaults(t *testing.T) {
	// Statistically, Aegis-rw must survive fault sets that defeat base
	// Aegis (§2.4 / Figure 11): count survivors for random 14-fault sets
	// on a 23-slope layout, where base Aegis (hard FTC 7) often fails.
	rng := xrand.New(11)
	base := core.MustFactory(512, 23)
	rw := MustRWFactory(512, 23, failcache.Perfect{})
	baseOK, rwOK := 0, 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		positions := rng.Perm(512)[:14]
		vals := make([]bool, len(positions))
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		mk := func() *pcm.Block {
			b := pcm.NewImmortalBlock(512)
			for i, p := range positions {
				b.InjectFault(p, vals[i])
			}
			return b
		}
		writeAll := func(s scheme.Scheme, b *pcm.Block) bool {
			r := xrand.New(int64(trial))
			for w := 0; w < 8; w++ {
				if err := s.Write(b, bitvec.Random(512, r)); err != nil {
					return false
				}
			}
			return true
		}
		if writeAll(base.New(), mk()) {
			baseOK++
		}
		if writeAll(rw.New(), mk()) {
			rwOK++
		}
	}
	if rwOK <= baseOK {
		t.Fatalf("Aegis-rw survivors (%d/%d) not above base Aegis (%d/%d)", rwOK, trials, baseOK, trials)
	}
}

func TestRWUnrecoverable(t *testing.T) {
	f := MustRWFactory(512, 23, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	// Alternate stuck values across a whole rectangle row-pair pattern so
	// that every slope has a mixed group: saturate with many faults.
	rng := xrand.New(13)
	for _, p := range rng.Perm(512)[:200] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	err := s.Write(blk, bitvec.Random(512, rng))
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
}

func TestRWPDirectMode(t *testing.T) {
	f := MustRWPFactory(512, 23, 4, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*RWP)
	blk.InjectFault(10, true)
	blk.InjectFault(200, true)

	data := bitvec.New(512) // both W
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if s.Complement() {
		t.Fatal("complement mode used for 2 W-groups with p=4")
	}
	if got := len(s.Pointers()); got == 0 || got > 2 {
		t.Fatalf("pointers = %v", s.Pointers())
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestRWPComplementMode(t *testing.T) {
	// Many W faults but few R faults: direct mode would blow the pointer
	// budget, complement mode records the R groups instead.
	f := MustRWPFactory(512, 23, 2, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*RWP)
	var events []scheme.TraceEvent
	s.SetTracer(tracerFunc(func(e scheme.TraceEvent) { events = append(events, e) }))
	rng := xrand.New(17)
	// 8 stuck-at-1 faults spread across >2 groups: all W for zero data.
	for _, p := range rng.Perm(512)[:8] {
		blk.InjectFault(p, true)
	}
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !s.Complement() {
		t.Fatal("expected complement mode")
	}
	if len(s.Pointers()) > 2 {
		t.Fatalf("pointer budget exceeded: %v", s.Pointers())
	}
	// The inversion event counts the inverted groups: all but the ones
	// the pointers leave plain.
	var inversions []scheme.TraceEvent
	for _, e := range events {
		if e.Kind == scheme.TraceInversion {
			inversions = append(inversions, e)
		}
	}
	if want := 23 - len(s.Pointers()); len(inversions) != 1 || inversions[0].Groups != want {
		t.Fatalf("inversion events %+v, want one with Groups %d", inversions, want)
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestRWPPointerExhaustion(t *testing.T) {
	// p=1 with faults of both kinds scattered over many groups: neither
	// side fits one pointer under any slope.
	f := MustRWPFactory(512, 23, 1, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(19)
	perm := rng.Perm(512)
	for i := 0; i < 12; i++ {
		blk.InjectFault(perm[i], i%2 == 0)
	}
	data := bitvec.New(512)
	err := s.Write(blk, data)
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatalf("expected pointer exhaustion, got %v", err)
	}
}

func TestRWPZeroPointers(t *testing.T) {
	// p=0 still works while the block is fault free.
	f := MustRWPFactory(512, 23, 0, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(23)
	for i := 0; i < 5; i++ {
		data := bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatal("read differs")
		}
	}
}

func TestOverheadBits(t *testing.T) {
	rw := MustRWFactory(512, 61, failcache.Perfect{})
	if got := rw.OverheadBits(); got != 67 {
		t.Fatalf("Aegis-rw 9x61 overhead = %d, want 67 (same as Aegis)", got)
	}
	// rw-p: ⌈log₂23⌉=5 slope counter + 4 pointers × 5 + 2 flags = 27.
	rwp := MustRWPFactory(512, 23, 4, failcache.Perfect{})
	if got := rwp.OverheadBits(); got != 27 {
		t.Fatalf("Aegis-rw-p 23x23 p=4 overhead = %d, want 27", got)
	}
	if rw.Name() != "Aegis-rw 23x23" && rw.Name() != "Aegis-rw 9x61" {
		t.Fatalf("unexpected name %q", rw.Name())
	}
}

func TestFactoryErrors(t *testing.T) {
	if _, err := NewRWFactory(512, 24, failcache.Perfect{}); err == nil {
		t.Fatal("non-prime B accepted")
	}
	if _, err := NewRWPFactory(512, 23, -1, failcache.Perfect{}); err == nil {
		t.Fatal("negative pointer budget accepted")
	}
}

func TestRWWithFiniteCache(t *testing.T) {
	// A tiny direct-mapped cache forces rediscovery through verification
	// reads; writes must still round-trip for modest fault counts.
	cache := failcache.NewDirectMapped(8)
	f := MustRWFactory(512, 31, cache)
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(29)
	for _, p := range rng.Perm(512)[:4] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	for i := 0; i < 10; i++ {
		data := bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
}

// Property: Aegis-rw round-trips whenever its slope-exclusion predicate
// admits a slope, for random fault sets and random data.
func TestPropRWRoundTrip(t *testing.T) {
	f := MustRWFactory(256, 23, failcache.Perfect{})
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		nf := rng.Intn(16)
		blk := pcm.NewImmortalBlock(256)
		s := f.New().(*RW)
		for _, p := range rng.Perm(256)[:nf] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 10; w++ {
			data := bitvec.Random(256, rng)
			err := s.Write(blk, data)
			if err != nil {
				return true // died: acceptable for random sets beyond capacity
			}
			if !s.Read(blk, nil).Equal(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Aegis-rw-p with a large pointer budget (p = B) behaves like
// Aegis-rw: it must survive any write Aegis-rw survives.
func TestPropRWPSubsumesRWithFullBudget(t *testing.T) {
	rwF := MustRWFactory(256, 23, failcache.Perfect{})
	rwpF := MustRWPFactory(256, 23, 23, failcache.Perfect{})
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		nf := rng.Intn(18)
		positions := rng.Perm(256)[:nf]
		vals := make([]bool, nf)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		mk := func() *pcm.Block {
			b := pcm.NewImmortalBlock(256)
			for i, p := range positions {
				b.InjectFault(p, vals[i])
			}
			return b
		}
		rw, rwp := rwF.New(), rwpF.New()
		brw, brwp := mk(), mk()
		r1 := xrand.New(seed + 1)
		r2 := xrand.New(seed + 1)
		for w := 0; w < 8; w++ {
			d1 := bitvec.Random(256, r1)
			d2 := bitvec.Random(256, r2)
			err1 := rw.Write(brw, d1)
			err2 := rwp.Write(brwp, d2)
			if err1 == nil && err2 != nil {
				return false // rw survived but full-budget rw-p died
			}
			if err1 != nil {
				return true
			}
			if !rwp.Read(brwp, nil).Equal(d2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRWWrite8Faults(b *testing.B) {
	f := MustRWFactory(512, 61, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	rng := xrand.New(1)
	for _, p := range rng.Perm(512)[:8] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	s := f.New()
	data := make([]*bitvec.Vector, 16)
	for i := range data {
		data[i] = bitvec.Random(512, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(blk, data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// tracerFunc adapts a function to scheme.Tracer.
type tracerFunc func(scheme.TraceEvent)

func (f tracerFunc) TraceEvent(e scheme.TraceEvent) { f(e) }
