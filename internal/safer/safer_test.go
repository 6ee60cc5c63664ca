package safer

import (
	"aegis/internal/xrand"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(500, 32); err == nil {
		t.Error("non-power-of-two block accepted")
	}
	if _, err := New(512, 33); err == nil {
		t.Error("non-power-of-two groups accepted")
	}
	if _, err := New(512, 1024); err == nil {
		t.Error("more groups than bits accepted")
	}
	if _, err := New(512, 32); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

// Table 1 SAFER row: 1, 7, 14, 22, 35, 55, 91, 159, 292, 552 bits for
// N = 1, 2, 4, …, 512 on a 512-bit block.
func TestOverheadBitsTable1(t *testing.T) {
	want := map[int]int{1: 1, 2: 7, 4: 14, 8: 22, 16: 35, 32: 55, 64: 91, 128: 159, 256: 292, 512: 552}
	for groups, bits := range want {
		if got := OverheadBits(512, groups); got != bits {
			t.Errorf("OverheadBits(512, %d) = %d, want %d", groups, got, bits)
		}
	}
}

func TestWriteReadNoFaults(t *testing.T) {
	f := MustFactory(512, 32)
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	rng := xrand.New(1)
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

func TestSingleFaultInversion(t *testing.T) {
	f := MustFactory(512, 32)
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*SAFER)
	blk.InjectFault(99, true)
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
	// One fault needs no partition fields at all.
	if len(s.Fields()) != 0 {
		t.Fatalf("fields = %v for a single fault", s.Fields())
	}
}

func TestCollisionGrowsVector(t *testing.T) {
	f := MustFactory(512, 32)
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*SAFER)
	// Two W faults: with no fields they share the single group.
	blk.InjectFault(0, true)
	blk.InjectFault(3, true) // addresses differ in bits 0 and 1
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(s.Fields()) != 1 {
		t.Fatalf("fields = %v, want exactly one", s.Fields())
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestHardFTCGuarantee(t *testing.T) {
	// SAFER-32 (m=5) guarantees 6 faults.
	f := MustFactory(512, 32)
	rng := xrand.New(5)
	for trial := 0; trial < 40; trial++ {
		blk := pcm.NewImmortalBlock(512)
		s := f.New()
		for _, p := range rng.Perm(512)[:6] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 10; w++ {
			data := bitvec.Random(512, rng)
			if err := s.Write(blk, data); err != nil {
				t.Fatalf("trial %d: SAFER32 failed with 6 faults: %v", trial, err)
			}
			if !s.Read(blk, nil).Equal(data) {
				t.Fatalf("trial %d: read differs", trial)
			}
		}
	}
}

func TestExhaustionKillsBlock(t *testing.T) {
	// SAFER-2 (m=1) guarantees only 2 faults; 3 colliding W faults that
	// pairwise differ in all address bits can exceed it.
	f := MustFactory(512, 2)
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	// Faults at 0, 1, 2: any single address bit leaves two in one group.
	blk.InjectFault(0, true)
	blk.InjectFault(1, true)
	blk.InjectFault(2, true)
	err := s.Write(blk, bitvec.New(512))
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
}

func TestFieldsOnlyGrow(t *testing.T) {
	f := MustFactory(512, 64)
	blk := pcm.NewImmortalBlock(512)
	s := f.New().(*SAFER)
	rng := xrand.New(7)
	prev := 0
	for i := 0; i < 12; i++ {
		blk.InjectFault(rng.Intn(512), rng.Intn(2) == 0)
		if err := s.Write(blk, bitvec.Random(512, rng)); err != nil {
			break
		}
		if got := len(s.Fields()); got < prev {
			t.Fatalf("partition vector shrank: %d -> %d", prev, got)
		} else {
			prev = got
		}
	}
}

func TestCachedToleratesSameTypeCollision(t *testing.T) {
	f := MustCachedFactory(512, 2, failcache.Perfect{})
	blk := pcm.NewImmortalBlock(512)
	s := f.New()
	// Both stuck at 1 → both W for zero data → same group is fine.
	blk.InjectFault(0, true)
	blk.InjectFault(1, true)
	blk.InjectFault(2, true)
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !s.Read(blk, nil).Equal(data) {
		t.Fatal("read differs")
	}
}

func TestCachedReselectsFields(t *testing.T) {
	// The cached variant must survive fault sets that kill the
	// incremental scheme, by re-selecting positions per write.
	rng := xrand.New(11)
	plainF := MustFactory(512, 32)
	cachedF := MustCachedFactory(512, 32, failcache.Perfect{})
	plainOK, cachedOK := 0, 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		positions := rng.Perm(512)[:12]
		vals := make([]bool, len(positions))
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		run := func(s scheme.Scheme) bool {
			blk := pcm.NewImmortalBlock(512)
			for i, p := range positions {
				blk.InjectFault(p, vals[i])
			}
			r := xrand.New(int64(trial))
			for w := 0; w < 8; w++ {
				if err := s.Write(blk, bitvec.Random(512, r)); err != nil {
					return false
				}
			}
			return true
		}
		if run(plainF.New()) {
			plainOK++
		}
		if run(cachedF.New()) {
			cachedOK++
		}
	}
	if cachedOK < plainOK {
		t.Fatalf("SAFER32-cache survivors (%d) below SAFER32 (%d)", cachedOK, plainOK)
	}
	if cachedOK == 0 {
		t.Fatal("SAFER32-cache survived nothing; implementation broken")
	}
}

func TestCachedOverheadMatchesPlain(t *testing.T) {
	plain := MustFactory(512, 64)
	cached := MustCachedFactory(512, 64, failcache.Perfect{})
	if plain.OverheadBits() != cached.OverheadBits() {
		t.Fatalf("overheads differ: %d vs %d", plain.OverheadBits(), cached.OverheadBits())
	}
	if cached.Name() != "SAFER64-cache" {
		t.Fatalf("Name = %q", cached.Name())
	}
}

// Property: SAFER round-trips any data while its faults stay within the
// hard FTC.
func TestPropRoundTripWithinHardFTC(t *testing.T) {
	f := MustFactory(256, 16) // m=4: hard FTC 5
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		blk := pcm.NewImmortalBlock(256)
		s := f.New()
		for _, p := range rng.Perm(256)[:5] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 8; w++ {
			data := bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				return false
			}
			if !s.Read(blk, nil).Equal(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSAFERWrite8Faults(b *testing.B) {
	f := MustFactory(512, 64)
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

// BenchmarkSAFERCacheWrite is the scheme-layer cost of one SAFER-cache
// request write on a 512-bit block whose faults the perfect cache
// reveals: field search, inversion and the write–verify loop.  Each
// case cycles 16 data vectors the fault set survives.
func BenchmarkSAFERCacheWrite(b *testing.B) {
	for _, groups := range []int{64, 128} {
		for _, faults := range []int{10, 20, 30} {
			b.Run(fmt.Sprintf("groups=%d/faults=%d", groups, faults), func(b *testing.B) {
				f := MustCachedFactory(512, groups, failcache.Perfect{})
				blk := pcm.NewImmortalBlock(512)
				rng := xrand.New(int64(faults))
				for _, p := range rng.Perm(512)[:faults] {
					blk.InjectFault(p, rng.Intn(2) == 0)
				}
				s := f.New()
				var data []*bitvec.Vector
				for try := 0; try < 1000 && len(data) < 16; try++ {
					d := bitvec.Random(512, rng)
					if s.Write(blk, d) == nil {
						data = append(data, d)
					}
				}
				if len(data) == 0 {
					b.Skip("no datum survives this fault set")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Write(blk, data[i%len(data)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestCachedMetadataAccessorsAndFiniteCache(t *testing.T) {
	f := MustCachedFactory(512, 64, failcache.Perfect{})
	if f.BlockBits() != 512 || f.Name() != "SAFER64-cache" {
		t.Fatalf("factory metadata: %s %d", f.Name(), f.BlockBits())
	}
	s := f.New().(*Cached)
	if s.Name() != "SAFER64-cache" {
		t.Fatalf("instance name %q", s.Name())
	}
	if got := s.OpStats(); got.Requests != 0 {
		t.Fatalf("fresh OpStats = %+v", got)
	}
	// A finite cache forces the discovery/record path through
	// mergeFaults and appendFault.
	finite := failcache.NewDirectMapped(16)
	ff := MustCachedFactory(512, 32, finite)
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(3, true)
	blk.InjectFault(200, false)
	sc := ff.New()
	rng := xrand.New(31)
	for i := 0; i < 8; i++ {
		data := bitvec.Random(512, rng)
		if err := sc.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !sc.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
	if got := sc.(*Cached).OpStats(); got.Requests != 8 || got.RawWrites < 8 {
		t.Fatalf("OpStats after writes = %+v", got)
	}
}

func TestCachedValidation(t *testing.T) {
	if _, err := NewCached(500, 32, nil); err == nil {
		t.Error("non-power-of-two block accepted")
	}
	if _, err := NewCached(512, 33, nil); err == nil {
		t.Error("non-power-of-two groups accepted")
	}
	if _, err := NewCachedFactory(512, 1024, failcache.Perfect{}); err == nil {
		t.Error("factory accepted more groups than bits")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustCachedFactory did not panic")
			}
		}()
		MustCachedFactory(512, 33, failcache.Perfect{})
	}()
}

func TestCachedReadWithoutPriorWrite(t *testing.T) {
	// Read on a fresh instance (inverted-cell mask unbuilt) must not
	// panic even with inversion bits restored from metadata.
	s, err := NewCached(512, 32, failcache.Perfect{}.View(0))
	if err != nil {
		t.Fatal(err)
	}
	donor, _ := NewCached(512, 32, failcache.Perfect{}.View(1))
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(9, true)
	if err := donor.Write(blk, bitvec.New(512)); err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBits(donor.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !s.Read(blk, nil).Equal(bitvec.New(512)) {
		t.Fatal("restored read differs")
	}
}
