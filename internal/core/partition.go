package core

import (
	"fmt"
	"slices"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// Partition is the per-block state that base Aegis (§2.3) and Aegis-rw
// (§2.4) share: the write loop, the layout, a slope counter of ⌈log₂B⌉
// bits and a B-bit inversion vector whose bit y records that group y is
// stored inverted under the current slope.  The two schemes differ only
// in how their Plan searches for a slope; both then call Adopt, and
// Partition supplies the rest of the Planner, the read path, Reset and
// the metadata codec.
type Partition struct {
	scheme.Loop
	layout *plane.Layout
	slope  int
	inv    *bitvec.Vector
}

// NewPartition returns slope 0 and an empty inversion vector over l.
// view is the block's fail-cache window; nil selects fault discovery.
func NewPartition(l *plane.Layout, view failcache.View) Partition {
	return Partition{Loop: scheme.NewLoop(l.N, view), layout: l, inv: bitvec.New(l.B)}
}

// Layout returns the partition layout the instance uses.
func (p *Partition) Layout() *plane.Layout { return p.layout }

// OverheadBits implements scheme.Scheme: ⌈log₂B⌉ + B (§2.3).  Aegis-rw
// with the same A×B formation costs the same (§2.4): the fail cache is
// shared chip-level SRAM, not part of the per-block budget.
func (p *Partition) OverheadBits() int { return p.layout.OverheadBits() }

// Slope returns the current slope-counter value.
func (p *Partition) Slope() int { return p.slope }

// InversionVector returns a copy of the current inversion vector.
func (p *Partition) InversionVector() *bitvec.Vector { return p.inv.Clone() }

// Reset implements scheme.Resettable: slope 0, empty inversion vector,
// zeroed counters, no tracer and, for an instance a factory bound to a
// fail cache, a fresh view — the state a new instance starts in.
func (p *Partition) Reset() {
	p.Loop.Reset()
	p.slope = 0
	p.inv.Zero()
}

// Adopt is the common tail of Plan once a slope k is found: it counts a
// re-partition when k differs from the current slope and inverts the
// group of every wrong fault, so each faulty cell's physical value
// equals its stuck value.  Groups without a wrong fault are stored
// plain.
func (p *Partition) Adopt(k int, faults []failcache.Fault, wrong []bool) {
	if k != p.slope {
		p.Repartition(p.slope, k, len(faults))
		p.slope = k
	}
	p.inv.Zero()
	for i, f := range faults {
		if wrong[i] {
			p.inv.Set(p.layout.Group(f.Pos, k), true)
		}
	}
}

// Encode implements scheme.Planner: data with the inverted groups
// flipped under the current slope.
func (p *Partition) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	p.layout.XorGroups(phys, p.inv, p.slope)
	return p.inv.Any()
}

// InvertedGroups implements scheme.Planner.
func (p *Partition) InvertedGroups() int { return p.inv.PopCount() }

// Read implements scheme.Scheme: logical data is the physical contents
// with the inverted groups flipped back.
func (p *Partition) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	p.layout.XorGroups(dst, p.inv, p.slope)
	return dst
}

// MarshalBits implements scheme.MetadataCodec: the slope counter in
// ⌈log₂B⌉ bits followed by the B-bit inversion vector — exactly the
// OverheadBits() budget.
func (p *Partition) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(p.OverheadBits())
	w.WriteUint(uint64(p.slope), plane.CeilLog2(p.layout.B))
	w.WriteVector(p.inv)
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec.
func (p *Partition) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, p.OverheadBits())
	if err != nil {
		return err
	}
	slope, err := readSlope(r, p.layout)
	if err != nil {
		return err
	}
	p.slope = slope
	p.inv.CopyFrom(r.ReadVector(p.layout.B))
	return nil
}

func readSlope(r *scheme.BitReader, l *plane.Layout) (int, error) {
	slope := int(r.ReadUint(plane.CeilLog2(l.B)))
	if slope >= l.B {
		return 0, fmt.Errorf("core: decoded slope %d out of range [0,%d)", slope, l.B)
	}
	return slope, nil
}

// PointerCodec is the metadata layout of the pointer variants, Aegis-p
// (§2.3) and Aegis-rw-p (§2.4): the slope counter, P group pointers of
// ⌈log₂B⌉ bits, an optional mode bit and an all-pointers-used bit.  B
// is prime, hence never a power of two, so the value B itself fits a
// pointer field and marks it unused; unused fields follow the live
// ones.
type PointerCodec struct {
	L    *plane.Layout
	P    int
	Mode bool // a mode bit precedes the all-pointers-used bit
}

// Bits is the encoded size, the variants' OverheadBits.
func (c PointerCodec) Bits() int {
	bits := plane.CeilLog2(c.L.B)*(1+c.P) + 1
	if c.Mode {
		bits++
	}
	return bits
}

// Marshal encodes a slope and the first P of ptrs; mode is written only
// with Mode.
func (c PointerCodec) Marshal(slope int, ptrs []int, mode bool) *bitvec.Vector {
	w := scheme.NewBitWriter(c.Bits())
	width := plane.CeilLog2(c.L.B)
	w.WriteUint(uint64(slope), width)
	for i := 0; i < c.P; i++ {
		g := c.L.B
		if i < len(ptrs) {
			g = ptrs[i]
		}
		w.WriteUint(uint64(g), width)
	}
	if c.Mode {
		w.WriteBool(mode)
	}
	w.WriteBool(len(ptrs) == c.P)
	return w.Finish()
}

// Unmarshal decodes what Marshal wrote into a fresh pointer list.  It
// rejects an out-of-range slope or pointer, a pointer after an unused
// field, a repeated pointer and an all-pointers-used bit that disagrees
// with the pointer count.
func (c PointerCodec) Unmarshal(v *bitvec.Vector) (slope int, ptrs []int, mode bool, err error) {
	r, err := scheme.NewBitReader(v, c.Bits())
	if err != nil {
		return 0, nil, false, err
	}
	if slope, err = readSlope(r, c.L); err != nil {
		return 0, nil, false, err
	}
	width := plane.CeilLog2(c.L.B)
	unused := false
	for i := 0; i < c.P; i++ {
		g := int(r.ReadUint(width))
		switch {
		case g == c.L.B:
			unused = true
			continue
		case g > c.L.B:
			err = fmt.Errorf("core: decoded pointer %d out of range", g)
		case unused:
			err = fmt.Errorf("core: pointer after unused sentinel")
		case slices.Contains(ptrs, g):
			err = fmt.Errorf("core: duplicate pointer %d", g)
		}
		if err != nil {
			return 0, nil, false, err
		}
		ptrs = append(ptrs, g)
	}
	if c.Mode {
		mode = r.ReadBool()
	}
	if full := r.ReadBool(); full != (len(ptrs) == c.P) {
		return 0, nil, false, fmt.Errorf("core: all-pointers-used flag inconsistent with %d/%d pointers", len(ptrs), c.P)
	}
	return slope, ptrs, mode, nil
}
