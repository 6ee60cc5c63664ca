package safer

import (
	"aegis/internal/xrand"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// codecScheme is what the SAFER codec tests need of either variant.
type codecScheme interface {
	scheme.Scheme
	scheme.MetadataCodec
}

// bothVariants returns a fresh SAFER and SAFER-cache instance for
// 512-bit blocks with 32 groups.
func bothVariants(t *testing.T) map[string]codecScheme {
	t.Helper()
	s, err := New(512, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(512, 32, failcache.Perfect{}.View(0))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]codecScheme{"SAFER": s, "SAFER-cache": c}
}

// saferMeta builds SAFER metadata for m=5, 512-bit blocks: five 4-bit
// position fields, 32 inversion bits, then the 3-bit field count.
func saferMeta(fields []int, count int, inv ...int) *bitvec.Vector {
	w := scheme.NewBitWriter(OverheadBits(512, 32))
	for i := 0; i < 5; i++ {
		f := 0
		if i < len(fields) {
			f = fields[i]
		}
		w.WriteUint(uint64(f), 4)
	}
	bits := bitvec.New(32)
	for _, g := range inv {
		bits.Set(g, true)
	}
	w.WriteVector(bits)
	w.WriteUint(uint64(count), 3)
	return w.Finish()
}

// TestCodecDecodeIntoUsedInstance decodes a block's own metadata back
// into the instance that wrote it: the state, and so every read, must
// stay what it was.
func TestCodecDecodeIntoUsedInstance(t *testing.T) {
	for name, s := range bothVariants(t) {
		blk := pcm.NewImmortalBlock(512)
		blk.InjectFault(10, true)
		blk.InjectFault(200, true)
		data := bitvec.New(512) // both faults stuck-at-Wrong
		data.Set(77, true)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.UnmarshalBits(s.MarshalBits()); err != nil {
			t.Fatalf("%s: own metadata rejected: %v", name, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("%s: read after decoding its own metadata differs", name)
		}
	}
}

func TestCodecBudgetExact(t *testing.T) {
	for _, groups := range []int{2, 16, 32, 128} {
		s, err := New(512, groups)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MarshalBits().Len(); got != s.OverheadBits() {
			t.Fatalf("SAFER%d metadata = %d bits, budget %d", groups, got, s.OverheadBits())
		}
		c, err := NewCached(512, groups, failcache.Perfect{}.View(0))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.MarshalBits().Len(); got != c.OverheadBits() {
			t.Fatalf("SAFER%d-cache metadata = %d bits, budget %d", groups, got, c.OverheadBits())
		}
	}
}

func TestCodecRoundTripAfterFaultyWrites(t *testing.T) {
	rng := xrand.New(1)
	s, _ := New(512, 64)
	blk := pcm.NewImmortalBlock(512)
	for _, p := range rng.Perm(512)[:4] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	var data *bitvec.Vector
	for w := 0; w < 6; w++ {
		data = bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := New(512, 64)
	if err := fresh.UnmarshalBits(s.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("restored SAFER decodes wrong data")
	}
	if len(fresh.Fields()) != len(s.Fields()) {
		t.Fatalf("fields not restored: %v vs %v", fresh.Fields(), s.Fields())
	}
}

func TestCodecRejects(t *testing.T) {
	s, _ := New(512, 32)
	if err := s.UnmarshalBits(bitvec.New(3)); err == nil {
		t.Fatal("truncated metadata accepted")
	}
	// Field count beyond budget: m=5 for 32 groups; count field is 3
	// bits wide, so 6 and 7 are representable but invalid.
	bits := s.MarshalBits()
	n := bits.Len()
	// Count lives in the last 3 bits.
	bits.Set(n-1, true)
	bits.Set(n-2, true)
	bits.Set(n-3, true) // count = 7 > m = 5
	if err := s.UnmarshalBits(bits); err == nil {
		t.Fatal("excess field count accepted")
	}
	// Out-of-range field position (addrBits = 9; positions 9-15 invalid).
	w := s.MarshalBits()
	w.Zero()
	w.Set(0, true)
	w.Set(1, true)
	w.Set(3, true) // field0 = 0b1011 = 11 > 8
	w.Set(w.Len()-3, true)
	if err := s.UnmarshalBits(w); err == nil {
		t.Fatal("out-of-range field accepted")
	}
	// Non-canonical encodings no write produces: a repeated field
	// position, a nonzero unused field, and an inversion bit for a
	// group the fields in use leave empty.
	for name, s := range bothVariants(t) {
		for _, bad := range []struct {
			why string
			v   *bitvec.Vector
		}{
			{"duplicate field position", saferMeta([]int{3, 3}, 2)},
			{"nonzero unused field", saferMeta([]int{3, 4}, 1)},
			{"inversion bit of an empty group", saferMeta([]int{3}, 1, 2)},
		} {
			if err := s.UnmarshalBits(bad.v); err == nil {
				t.Errorf("%s: %s accepted", name, bad.why)
			}
		}
		if err := s.UnmarshalBits(saferMeta([]int{3, 4}, 2, 1, 3)); err != nil {
			t.Errorf("%s: canonical metadata rejected: %v", name, err)
		}
	}
}

func TestCachedCodecRoundTrip(t *testing.T) {
	rng := xrand.New(2)
	view := failcache.Perfect{}.View(0)
	c, _ := NewCached(512, 32, view)
	blk := pcm.NewImmortalBlock(512)
	for _, p := range rng.Perm(512)[:6] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	var data *bitvec.Vector
	for w := 0; w < 6; w++ {
		data = bitvec.Random(512, rng)
		if err := c.Write(blk, data); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := NewCached(512, 32, view)
	if err := fresh.UnmarshalBits(c.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("restored SAFER-cache decodes wrong data")
	}
	if err := fresh.UnmarshalBits(bitvec.New(1)); err == nil {
		t.Fatal("truncated metadata accepted")
	}
}

// Property: SAFER codec round-trips across random fault histories.
func TestPropCodecPreservesReads(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		s, _ := New(256, 16)
		blk := pcm.NewImmortalBlock(256)
		for _, p := range rng.Perm(256)[:rng.Intn(5)] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		var data *bitvec.Vector
		for w := 0; w < 4; w++ {
			data = bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				return true
			}
		}
		fresh, _ := New(256, 16)
		if err := fresh.UnmarshalBits(s.MarshalBits()); err != nil {
			return false
		}
		return fresh.Read(blk, nil).Equal(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
