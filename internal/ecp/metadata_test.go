package ecp

import (
	"aegis/internal/xrand"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

func TestCodecBudgetExact(t *testing.T) {
	for _, entries := range []int{0, 1, 4, 6, 10} {
		e, err := New(512, entries)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.MarshalBits().Len(); got != e.OverheadBits() {
			t.Fatalf("ECP%d metadata = %d bits, budget %d", entries, got, e.OverheadBits())
		}
	}
}

func TestCodecRoundTripEmpty(t *testing.T) {
	e, _ := New(512, 6)
	bits := e.MarshalBits()
	fresh, _ := New(512, 6)
	if err := fresh.UnmarshalBits(bits); err != nil {
		t.Fatal(err)
	}
	if fresh.UsedEntries() != 0 {
		t.Fatalf("restored %d entries from empty state", fresh.UsedEntries())
	}
}

func TestCodecRoundTripWithEntries(t *testing.T) {
	e, _ := New(512, 6)
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(40, true)
	blk.InjectFault(7, true) // out of order on purpose: Write sorts
	blk.InjectFault(300, true)
	data := bitvec.New(512)
	if err := e.Write(blk, data); err != nil {
		t.Fatal(err)
	}
	if e.UsedEntries() != 3 {
		t.Fatalf("entries = %d", e.UsedEntries())
	}
	bits := e.MarshalBits()
	fresh, _ := New(512, 6)
	if err := fresh.UnmarshalBits(bits); err != nil {
		t.Fatal(err)
	}
	if fresh.UsedEntries() != 3 {
		t.Fatalf("restored entries = %d", fresh.UsedEntries())
	}
	if !fresh.Read(blk, nil).Equal(data) {
		t.Fatal("restored instance decodes wrong data")
	}
}

func TestCodecRejects(t *testing.T) {
	e, _ := New(512, 6)
	if err := e.UnmarshalBits(bitvec.New(e.OverheadBits() + 1)); err == nil {
		t.Fatal("overlong metadata accepted")
	}
	// Encodings MarshalBits never writes: every entry after the last
	// live one must repeat its pointer with a clear replacement bit.
	meta := func(empty bool, entries ...[2]int) *bitvec.Vector {
		w := scheme.NewBitWriter(e.OverheadBits())
		w.WriteBool(empty)
		for i := 0; i < 6; i++ {
			ent := [2]int{}
			if i < len(entries) {
				ent = entries[i]
			}
			w.WriteUint(uint64(ent[0]), 9)
			w.WriteBool(ent[1] == 1)
		}
		return w.Finish()
	}
	for _, bad := range []struct {
		why string
		v   *bitvec.Vector
	}{
		{"entry after the none-used flag", meta(true, [2]int{7, 0})},
		{"set replacement bit of an unused entry", meta(true, [2]int{0, 1})},
		{"unused entry with a new pointer", meta(false, [2]int{7, 1}, [2]int{3, 0})},
		{"live entry after an unused one", meta(false, [2]int{7, 0}, [2]int{7, 0}, [2]int{9, 0})},
	} {
		if err := e.UnmarshalBits(bad.v); err == nil {
			t.Errorf("%s accepted", bad.why)
		}
	}
	none, _ := New(512, 0)
	if err := none.UnmarshalBits(bitvec.New(1)); err == nil {
		t.Error("ECP0 accepted a clear none-used flag")
	}
}

func TestPointersStaySorted(t *testing.T) {
	e, _ := New(512, 8)
	blk := pcm.NewImmortalBlock(512)
	rng := xrand.New(1)
	for _, p := range rng.Perm(512)[:6] {
		blk.InjectFault(p, true)
		if err := e.Write(blk, bitvec.New(512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(e.ptrs); i++ {
		if e.ptrs[i-1] >= e.ptrs[i] {
			t.Fatalf("pointers not ascending: %v", e.ptrs)
		}
	}
}

// Property: marshal/unmarshal after arbitrary fault histories preserves
// read behaviour.
func TestPropCodecPreservesReads(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		e, _ := New(256, 8)
		blk := pcm.NewImmortalBlock(256)
		for _, p := range rng.Perm(256)[:rng.Intn(8)] {
			blk.InjectFault(p, rng.Intn(2) == 0)
		}
		var data *bitvec.Vector
		for w := 0; w < 4; w++ {
			data = bitvec.Random(256, rng)
			if err := e.Write(blk, data); err != nil {
				return true
			}
		}
		fresh, _ := New(256, 8)
		if err := fresh.UnmarshalBits(e.MarshalBits()); err != nil {
			return false
		}
		return fresh.Read(blk, nil).Equal(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
