package core

import (
	"fmt"
	"slices"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// AegisP is the pointer-vector variant of base Aegis that §2.3 sketches
// in one sentence: "The cost can be reduced by directly recording IDs of
// bit-inverted groups."  Instead of a B-bit inversion vector it keeps q
// group pointers of ⌈log₂B⌉ bits, plus the slope counter and an
// all-pointers-used bit.
//
// Unlike Aegis-rw-p this variant has no fail cache, so it cannot play
// the pigeonhole trick of inverting the complement: the recorded groups
// are exactly the inverted ones.  Under a collision-free configuration
// every detected stuck-at-Wrong fault sits alone in its group, so the
// number of groups needing inversion equals the number of W faults for
// the current data — independent of the slope.  Re-partitioning
// therefore cannot reduce pointer pressure, and the block dies as soon
// as a write exposes more than q simultaneously-wrong faults.  With
// random data f faults go wrong as Binomial(f, ½) per write, so under
// sustained writes the soft capacity caps only slightly above q — the
// trade the paper's sentence implies and the `ablation-aegisp`
// experiment quantifies.
type AegisP struct {
	*Aegis
	q     int
	saved *bitvec.Vector // inversion vector of the last successful write
}

var (
	_ scheme.Scheme        = (*AegisP)(nil)
	_ scheme.MetadataCodec = (*AegisP)(nil)
)

// NewP returns a fresh Aegis-p instance with q inversion pointers.
func NewP(l *plane.Layout, q int) (*AegisP, error) {
	if q < 0 {
		return nil, fmt.Errorf("core: negative pointer budget %d", q)
	}
	return &AegisP{Aegis: New(l), q: q, saved: bitvec.New(l.B)}, nil
}

// Name implements scheme.Scheme.
func (a *AegisP) Name() string { return fmt.Sprintf("Aegis-p %s q=%d", a.layout, a.q) }

// OverheadBits implements scheme.Scheme: slope counter, q group pointers
// and one all-pointers-used bit.
func (a *AegisP) OverheadBits() int { return a.codec().Bits() }

// codec is the metadata layout OverheadBits describes.
func (a *AegisP) codec() PointerCodec { return PointerCodec{L: a.layout, P: a.q} }

// Pointers returns the IDs of the currently inverted groups.
func (a *AegisP) Pointers() []int { return a.inv.OnesIndices() }

// Write implements scheme.Scheme: the base Aegis write path with the
// additional constraint that at most q groups may end up inverted.  A
// failed write commits no metadata: the block keeps the slope and
// pointers of its last successful write, which the q pointers can
// always record.
func (a *AegisP) Write(blk *pcm.Block, data *bitvec.Vector) error {
	slope := a.slope
	a.saved.CopyFrom(a.inv)
	err := a.Aegis.Write(blk, data)
	if err == nil && a.inv.PopCount() > a.q {
		// More inverted groups than pointers can record.  No other
		// slope helps: in any collision-free configuration each wrong
		// fault occupies its own group, so the inverted-group count is
		// the W-fault count of this data.
		err = a.Die(scheme.CausePointerBudget)
	}
	if err != nil {
		a.slope = slope
		a.inv.CopyFrom(a.saved)
	}
	return err
}

// MarshalBits implements scheme.MetadataCodec: the inverted groups in
// ascending order as the pointers.
func (a *AegisP) MarshalBits() *bitvec.Vector {
	return a.codec().Marshal(a.slope, a.Pointers(), false)
}

// UnmarshalBits implements scheme.MetadataCodec.  The inverted groups
// are a set, so pointers must ascend.
func (a *AegisP) UnmarshalBits(v *bitvec.Vector) error {
	slope, ptrs, _, err := a.codec().Unmarshal(v)
	if err != nil {
		return err
	}
	if !slices.IsSorted(ptrs) {
		return fmt.Errorf("core: pointers %v not ascending", ptrs)
	}
	a.slope = slope
	a.inv.Zero()
	for _, g := range ptrs {
		a.inv.Set(g, true)
	}
	return nil
}

// PFactory builds Aegis-p instances.
type PFactory struct {
	L *plane.Layout
	Q int
}

// NewPFactory returns a factory for n-bit blocks with parameter B and q
// inversion pointers.
func NewPFactory(n, b, q int) (*PFactory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	if q < 0 {
		return nil, fmt.Errorf("core: negative pointer budget %d", q)
	}
	return &PFactory{L: l, Q: q}, nil
}

// MustPFactory is NewPFactory that panics on error.
func MustPFactory(n, b, q int) *PFactory {
	f, err := NewPFactory(n, b, q)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *PFactory) Name() string { return fmt.Sprintf("Aegis-p %s q=%d", f.L, f.Q) }

// BlockBits implements scheme.Factory.
func (f *PFactory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *PFactory) OverheadBits() int { return PointerCodec{L: f.L, P: f.Q}.Bits() }

// New implements scheme.Factory.
func (f *PFactory) New() scheme.Scheme {
	s, err := NewP(f.L, f.Q)
	if err != nil {
		panic(err)
	}
	return s
}

var _ scheme.Factory = (*PFactory)(nil)
