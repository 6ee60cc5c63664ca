package aegisrw

import (
	"aegis/internal/xrand"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestRWCodecBudgetAndRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	f := MustRWFactory(512, 31, failcache.Perfect{})
	s := f.New().(*RW)
	if got := s.MarshalBits().Len(); got != s.OverheadBits() {
		t.Fatalf("metadata %d bits, budget %d", got, s.OverheadBits())
	}
	blk := pcm.NewImmortalBlock(512)
	for _, p := range rng.Perm(512)[:6] {
		blk.InjectFault(p, rng.Intn(2) == 0)
	}
	var data *bitvec.Vector
	for w := 0; w < 5; w++ {
		data = bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatal(err)
		}
	}
	fresh := f.New().(*RW)
	if err := fresh.UnmarshalBits(s.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("restored RW decodes wrong data")
	}
	if fresh.Slope() != s.Slope() {
		t.Fatalf("slope not restored: %d vs %d", fresh.Slope(), s.Slope())
	}
}

func TestRWCodecRejects(t *testing.T) {
	f := MustRWFactory(512, 23, failcache.Perfect{})
	s := f.New().(*RW)
	if err := s.UnmarshalBits(bitvec.New(5)); err == nil {
		t.Fatal("truncated metadata accepted")
	}
	bad := bitvec.New(s.OverheadBits())
	for i := 0; i < 5; i++ {
		bad.Set(i, true) // slope 31 ≥ B=23
	}
	if err := s.UnmarshalBits(bad); err == nil {
		t.Fatal("out-of-range slope accepted")
	}
}

func TestRWPCodecRoundTripBothModes(t *testing.T) {
	rng := xrand.New(3)
	f := MustRWPFactory(512, 23, 4, failcache.Perfect{})

	// Direct mode: a couple of W faults.
	s := f.New().(*RWP)
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(10, true)
	blk.InjectFault(200, true)
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatal(err)
	}
	fresh := f.New().(*RWP)
	if err := fresh.UnmarshalBits(s.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("direct-mode restore decodes wrong data")
	}
	if fresh.Complement() != s.Complement() || len(fresh.Pointers()) != len(s.Pointers()) {
		t.Fatal("mode/pointers not restored")
	}

	// Complement mode: many same-type W faults.
	s2 := MustRWPFactory(512, 23, 2, failcache.Perfect{}).New().(*RWP)
	blk2 := pcm.NewImmortalBlock(512)
	for _, p := range rng.Perm(512)[:8] {
		blk2.InjectFault(p, true)
	}
	if err := s2.Write(blk2, data); err != nil {
		t.Fatal(err)
	}
	if !s2.Complement() {
		t.Fatal("setup: expected complement mode")
	}
	fresh2 := MustRWPFactory(512, 23, 2, failcache.Perfect{}).New().(*RWP)
	if err := fresh2.UnmarshalBits(s2.MarshalBits()); err != nil {
		t.Fatal(err)
	}
	if !fresh2.Complement() {
		t.Fatal("complement bit lost")
	}
	if !fresh2.Read(blk2, nil).Equal(data) {
		t.Fatal("complement-mode restore decodes wrong data")
	}
}

func TestRWPCodecRejects(t *testing.T) {
	f := MustRWPFactory(512, 23, 3, failcache.Perfect{})
	s := f.New().(*RWP)
	if err := s.UnmarshalBits(bitvec.New(2)); err == nil {
		t.Fatal("truncated metadata accepted")
	}
	// Pointer value 31 (> B = 23 = sentinel) is invalid.
	w := bitvec.New(s.OverheadBits())
	for i := 5; i < 10; i++ {
		w.Set(i, true) // first pointer = 31
	}
	if err := s.UnmarshalBits(w); err == nil {
		t.Fatal("out-of-range pointer accepted")
	}
	// Live pointer after the unused sentinel is malformed.
	w2 := bitvec.New(s.OverheadBits())
	// slope = 0; ptr0 = sentinel 23 (10111b); ptr1 = 3.
	for i, bit := range []bool{true, true, true, false, true} {
		w2.Set(5+i, bit)
	}
	w2.Set(10, true)
	w2.Set(11, true)
	if err := s.UnmarshalBits(w2); err == nil {
		t.Fatal("pointer after sentinel accepted")
	}
	// Inconsistent all-pointers-used flag.
	good := s.MarshalBits()
	good.Flip(good.Len() - 1)
	if err := s.UnmarshalBits(good); err == nil {
		t.Fatal("inconsistent full flag accepted")
	}
	// A repeated pointer would cancel its own group in the XOR mask.
	dup := scheme.NewBitWriter(s.OverheadBits())
	dup.WriteUint(0, 5)
	for _, p := range []int{3, 3, 23} {
		dup.WriteUint(uint64(p), 5)
	}
	dup.WriteBool(false)
	dup.WriteBool(false)
	if err := s.UnmarshalBits(dup.Finish()); err == nil {
		t.Fatal("duplicate pointer accepted")
	}
}

// Property: RW codec round-trips after arbitrary fault histories.
func TestPropRWCodec(t *testing.T) {
	f := MustRWFactory(256, 23, failcache.Perfect{})
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		s := f.New().(*RW)
		blk := pcm.NewImmortalBlock(256)
		for _, p := range rng.Perm(256)[:rng.Intn(8)] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		var data *bitvec.Vector
		for w := 0; w < 4; w++ {
			data = bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				return true
			}
		}
		fresh := f.New().(*RW)
		if err := fresh.UnmarshalBits(s.MarshalBits()); err != nil {
			return false
		}
		return fresh.Read(blk, nil).Equal(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
