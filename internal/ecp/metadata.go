package ecp

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// MarshalBits implements scheme.MetadataCodec within the exact ECP
// budget of entries×(⌈log₂n⌉+1)+1 bits: one none-used flag followed by
// the correction entries (pointer + replacement bit).
//
// ECP keeps its pointers in ascending order (see Write), which frees the
// budget from needing a per-entry valid bit: the first entry is live
// unless the none-used flag is set, and each later entry is live exactly
// when its pointer exceeds its predecessor's.  Unused entries hold the
// last live pointer (or 0) and a clear replacement bit.
func (e *ECP) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(e.OverheadBits())
	w.WriteBool(len(e.ptrs) == 0)
	last := 0
	for i := 0; i < e.entries; i++ {
		if i < len(e.ptrs) {
			last = e.ptrs[i]
		}
		w.WriteUint(uint64(last), plane.CeilLog2(e.n))
		w.WriteBool(i < len(e.ptrs) && e.repl.Get(i))
	}
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec for exactly what
// MarshalBits writes; on error the state is left untouched.
func (e *ECP) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, e.OverheadBits())
	if err != nil {
		return err
	}
	live, last := !r.ReadBool(), 0
	var ptrs []int
	repl := bitvec.New(e.repl.Len())
	for i := 0; i < e.entries; i++ {
		p, rb := int(r.ReadUint(plane.CeilLog2(e.n))), r.ReadBool()
		live = live && (i == 0 || p > last)
		switch {
		case p >= e.n:
			return fmt.Errorf("ecp: decoded pointer %d out of range [0,%d)", p, e.n)
		case live:
			ptrs = append(ptrs, p)
			repl.Set(i, rb)
			last = p
		case p != last || rb:
			return fmt.Errorf("ecp: unused entry %d is not (%d, 0)", i, last)
		}
	}
	if live && e.entries == 0 {
		return fmt.Errorf("ecp: none-used flag clear without entries")
	}
	e.ptrs = append(e.ptrs[:0], ptrs...)
	e.repl.CopyFrom(repl)
	return nil
}

var _ scheme.MetadataCodec = (*ECP)(nil)
