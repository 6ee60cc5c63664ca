package safer

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// MarshalBits implements scheme.MetadataCodec: m position fields of
// ⌈log₂ log₂ n⌉ bits (unused fields encode 0), the 2^m inversion bits,
// and a ⌈log₂(m+1)⌉-bit count of the fields in use — exactly the SAFER
// budget reproduced in Table 1, for both variants.
func (s *partition) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(s.OverheadBits())
	for i := 0; i < s.m; i++ {
		pos := 0
		if i < len(s.fields) {
			pos = s.fields[i]
		}
		w.WriteUint(uint64(pos), plane.CeilLog2(s.addrBits))
	}
	w.WriteVector(s.inv)
	w.WriteUint(uint64(len(s.fields)), plane.CeilLog2(s.m+1))
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec.  Besides malformed
// input it rejects encodings no write produces: a repeated position, a
// nonzero unused field, and an inversion bit for a group the fields in
// use leave empty.
func (s *partition) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, s.OverheadBits())
	if err != nil {
		return err
	}
	raw := make([]int, s.m)
	for i := range raw {
		raw[i] = int(r.ReadUint(plane.CeilLog2(s.addrBits)))
	}
	inv := r.ReadVector(s.inv.Len())
	count := int(r.ReadUint(plane.CeilLog2(s.m + 1)))
	if count > s.m {
		return fmt.Errorf("safer: decoded field count %d exceeds budget %d", count, s.m)
	}
	mask := 0
	for i, pos := range raw {
		switch {
		case i >= count && pos != 0:
			return fmt.Errorf("safer: unused field %d holds position %d", i, pos)
		case i >= count:
		case pos >= s.addrBits:
			return fmt.Errorf("safer: decoded field position %d out of range", pos)
		case mask>>uint(pos)&1 == 1:
			return fmt.Errorf("safer: duplicate field position %d", pos)
		default:
			mask |= 1 << uint(pos)
		}
	}
	if ones := inv.OnesIndices(); len(ones) > 0 && ones[len(ones)-1] >= 1<<uint(count) {
		return fmt.Errorf("safer: inversion bit %d set for a group %d fields leave empty", ones[len(ones)-1], count)
	}
	s.setFields(raw[:count])
	s.inv.CopyFrom(inv)
	return nil
}
