package core

import (
	"aegis/internal/xrand"
	"errors"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestAegisPOverheadAndMetadata(t *testing.T) {
	f := MustPFactory(512, 23, 4)
	// slope 5 bits + 4 pointers × 5 + 1 flag = 26.
	if got := f.OverheadBits(); got != 26 {
		t.Fatalf("overhead = %d, want 26", got)
	}
	if f.Name() != "Aegis-p 23x23 q=4" || f.BlockBits() != 512 {
		t.Fatalf("metadata: %s %d", f.Name(), f.BlockBits())
	}
	s := f.New()
	if s.OverheadBits() != 26 || s.Name() != f.Name() {
		t.Fatal("instance metadata differs")
	}
}

func TestAegisPWorksWithinPointerBudget(t *testing.T) {
	f := MustPFactory(512, 23, 4)
	s := f.New().(*AegisP)
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(10, true)
	blk.InjectFault(200, false)
	rng := xrand.New(1)
	for i := 0; i < 10; i++ {
		data := bitvec.Random(512, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
		if got := len(s.Pointers()); got > 4 {
			t.Fatalf("pointer budget exceeded: %d", got)
		}
	}
}

func TestAegisPDiesOnPointerOverflow(t *testing.T) {
	// 6 stuck-at-1 faults, all-zero data: 6 simultaneously-wrong faults
	// exceed q=4 pointers even though base Aegis would survive.
	pf := MustPFactory(512, 23, 4)
	bf := MustFactory(512, 23)
	rng := xrand.New(2)
	positions := rng.Perm(512)[:6]

	mk := func() *pcm.Block {
		b := pcm.NewImmortalBlock(512)
		for _, p := range positions {
			b.InjectFault(p, true)
		}
		return b
	}
	if err := bf.New().Write(mk(), bitvec.New(512)); err != nil {
		t.Fatalf("base Aegis should survive 6 faults: %v", err)
	}
	err := pf.New().Write(mk(), bitvec.New(512))
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatalf("Aegis-p q=4 should die with 6 W faults, got %v", err)
	}
}

// TestAegisPDeadBlockMetadataDecodes kills a q=2 block with three
// simultaneously-wrong faults: the failed write must leave metadata the
// block's own codec accepts, namely the partition of the last
// successful write (here the fresh one).
func TestAegisPDeadBlockMetadataDecodes(t *testing.T) {
	f := MustPFactory(512, 23, 2)
	s := f.New().(*AegisP)
	blk := pcm.NewImmortalBlock(512)
	for _, p := range []int{3, 100, 300} {
		blk.InjectFault(p, true)
	}
	if err := s.Write(blk, bitvec.New(512)); !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatalf("q=2 with 3 W faults should die, got %v", err)
	}
	if got := s.Pointers(); len(got) != 0 {
		t.Fatalf("dead block records pointers %v, want the fresh block's none", got)
	}
	meta := s.MarshalBits()
	fresh := f.New().(*AegisP)
	if err := fresh.UnmarshalBits(meta); err != nil {
		t.Fatalf("dead block's own metadata rejected: %v", err)
	}
	if !fresh.MarshalBits().Equal(meta) {
		t.Fatal("dead block's metadata does not re-encode identically")
	}
}

func TestAegisPSoftCapacityNearTwiceQ(t *testing.T) {
	// With random data, f faults manifest wrong as Binomial(f, ½); the
	// block survives a burst of writes only while max observed W count
	// stays ≤ q.  f = q is always safe; f = 3q almost never is.
	f := MustPFactory(512, 31, 3)
	rng := xrand.New(3)
	survive := func(nf int) bool {
		blk := pcm.NewImmortalBlock(512)
		for _, p := range rng.Perm(512)[:nf] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		s := f.New()
		for w := 0; w < 20; w++ {
			if err := s.Write(blk, bitvec.Random(512, rng)); err != nil {
				return false
			}
		}
		return true
	}
	okSmall, okBig := 0, 0
	for trial := 0; trial < 20; trial++ {
		if survive(3) {
			okSmall++
		}
		if survive(9) {
			okBig++
		}
	}
	if okSmall != 20 {
		t.Fatalf("f=q=3 survived only %d/20", okSmall)
	}
	if okBig > 5 {
		t.Fatalf("f=3q=9 survived %d/20; pointer pressure not binding", okBig)
	}
}

func TestAegisPCodecRoundTrip(t *testing.T) {
	f := MustPFactory(512, 23, 4)
	s := f.New().(*AegisP)
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(10, true)
	blk.InjectFault(200, true)
	data := bitvec.New(512)
	if err := s.Write(blk, data); err != nil {
		t.Fatal(err)
	}
	bits := s.MarshalBits()
	if bits.Len() != s.OverheadBits() {
		t.Fatalf("metadata %d bits, budget %d", bits.Len(), s.OverheadBits())
	}
	fresh := f.New().(*AegisP)
	if err := fresh.UnmarshalBits(bits); err != nil {
		t.Fatal(err)
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("restored Aegis-p decodes wrong data")
	}
}

func TestAegisPCodecRejects(t *testing.T) {
	f := MustPFactory(512, 23, 2)
	s := f.New().(*AegisP)
	if err := s.UnmarshalBits(bitvec.New(1)); err == nil {
		t.Fatal("truncated metadata accepted")
	}
	bad := bitvec.New(s.OverheadBits())
	for i := 0; i < 5; i++ {
		bad.Set(i, true) // slope 31 ≥ 23
	}
	if err := s.UnmarshalBits(bad); err == nil {
		t.Fatal("out-of-range slope accepted")
	}
}

// pMeta builds Aegis-p metadata for B=23, q=2: the 5-bit slope, two
// 5-bit pointers and the all-pointers-used bit.
func pMeta(slope int, ptrs ...int) *bitvec.Vector {
	w := scheme.NewBitWriter(16)
	w.WriteUint(uint64(slope), 5)
	for i := 0; i < 2; i++ {
		p := 23 // unused sentinel
		if i < len(ptrs) {
			p = ptrs[i]
		}
		w.WriteUint(uint64(p), 5)
	}
	w.WriteBool(len(ptrs) == 2)
	return w.Finish()
}

// TestAegisPCodecRejectsNonCanonical feeds pointer lists no write
// produces: the inverted groups are a set, recorded in ascending order.
func TestAegisPCodecRejectsNonCanonical(t *testing.T) {
	s := MustPFactory(512, 23, 2).New().(*AegisP)
	for _, ptrs := range [][]int{{3, 3}, {5, 3}} {
		if err := s.UnmarshalBits(pMeta(1, ptrs...)); err == nil {
			t.Errorf("pointer list %v accepted", ptrs)
		}
	}
	for _, ptrs := range [][]int{{}, {3}, {3, 5}} {
		v := pMeta(1, ptrs...)
		if err := s.UnmarshalBits(v); err != nil {
			t.Errorf("pointer list %v rejected: %v", ptrs, err)
		} else if !s.MarshalBits().Equal(v) {
			t.Errorf("pointer list %v does not re-encode", ptrs)
		}
	}
}

func TestNewPValidation(t *testing.T) {
	if _, err := NewPFactory(512, 23, -1); err == nil {
		t.Fatal("negative q accepted")
	}
	if _, err := NewPFactory(512, 24, 2); err == nil {
		t.Fatal("non-prime B accepted")
	}
}

// Property: Aegis-p never survives a write that leaves more than q
// inverted groups, and whenever it succeeds the data round-trips.
func TestPropAegisPInvariant(t *testing.T) {
	f := MustPFactory(256, 23, 3)
	prop := func(seed int64) bool {
		rng := xrand.New(seed)
		s := f.New().(*AegisP)
		blk := pcm.NewImmortalBlock(256)
		for _, p := range rng.Perm(256)[:rng.Intn(8)] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		for w := 0; w < 8; w++ {
			data := bitvec.Random(256, rng)
			if err := s.Write(blk, data); err != nil {
				return true
			}
			if len(s.Pointers()) > 3 {
				return false
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

func TestAegisPAccessors(t *testing.T) {
	f := MustPFactory(512, 23, 3)
	s := f.New().(*AegisP)
	if s.Slope() != 0 {
		t.Fatalf("fresh slope = %d", s.Slope())
	}
	if got := s.OpStats(); got.Requests != 0 {
		t.Fatalf("fresh OpStats = %+v", got)
	}
	blk := pcm.NewImmortalBlock(512)
	if err := s.Write(blk, bitvec.New(512)); err != nil {
		t.Fatal(err)
	}
	if got := s.OpStats(); got.Requests != 1 {
		t.Fatalf("OpStats after write = %+v", got)
	}
	if _, err := NewP(nil, -1); err == nil {
		t.Fatal("negative q accepted by NewP")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustPFactory did not panic")
			}
		}()
		MustPFactory(512, 24, 1)
	}()
}
