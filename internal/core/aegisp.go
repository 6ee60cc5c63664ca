package core

import (
	"fmt"

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
	inner *Aegis
	q     int
}

var _ scheme.Scheme = (*AegisP)(nil)

// NewP returns a fresh Aegis-p instance with q inversion pointers.
func NewP(l *plane.Layout, q int) (*AegisP, error) {
	if q < 0 {
		return nil, fmt.Errorf("core: negative pointer budget %d", q)
	}
	return &AegisP{inner: New(l), q: q}, nil
}

// Name implements scheme.Scheme.
func (a *AegisP) Name() string { return fmt.Sprintf("Aegis-p %s q=%d", a.inner.layout, a.q) }

// OverheadBits implements scheme.Scheme: slope counter, q group pointers
// and one all-pointers-used bit.
func (a *AegisP) OverheadBits() int {
	return plane.CeilLog2(a.inner.layout.B)*(1+a.q) + 1
}

// Pointers returns the IDs of the currently inverted groups.
func (a *AegisP) Pointers() []int { return a.inner.inv.OnesIndices() }

// Slope returns the current slope counter value.
func (a *AegisP) Slope() int { return a.inner.Slope() }

// Write implements scheme.Scheme: the base Aegis write path with the
// additional constraint that at most q groups may end up inverted.
func (a *AegisP) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if err := a.inner.Write(blk, data); err != nil {
		return err
	}
	if a.inner.inv.PopCount() > a.q {
		// More inverted groups than pointers can record.  No other
		// slope helps: in any collision-free configuration each wrong
		// fault occupies its own group, so the inverted-group count is
		// the W-fault count of this data.
		return a.inner.Die(scheme.CausePointerBudget)
	}
	return nil
}

// SetTracer implements scheme.Traceable.
func (a *AegisP) SetTracer(t scheme.Tracer) { a.inner.SetTracer(t) }

// Reset implements scheme.Resettable.
func (a *AegisP) Reset() { a.inner.Reset() }

// Read implements scheme.Scheme.
func (a *AegisP) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	return a.inner.Read(blk, dst)
}

// OpStats implements scheme.OpReporter.
func (a *AegisP) OpStats() scheme.OpStats { return a.inner.OpStats() }

// MarshalBits implements scheme.MetadataCodec: slope counter, q group
// pointers (B as the unused sentinel — B is prime, never a power of two,
// so the sentinel always fits), and the all-pointers-used bit.
func (a *AegisP) MarshalBits() *bitvec.Vector {
	w := scheme.NewBitWriter(a.OverheadBits())
	width := plane.CeilLog2(a.inner.layout.B)
	w.WriteUint(uint64(a.inner.slope), width)
	ptrs := a.Pointers()
	for i := 0; i < a.q; i++ {
		if i < len(ptrs) {
			w.WriteUint(uint64(ptrs[i]), width)
		} else {
			w.WriteUint(uint64(a.inner.layout.B), width)
		}
	}
	w.WriteBool(len(ptrs) == a.q)
	return w.Finish()
}

// UnmarshalBits implements scheme.MetadataCodec.
func (a *AegisP) UnmarshalBits(v *bitvec.Vector) error {
	r, err := scheme.NewBitReader(v, a.OverheadBits())
	if err != nil {
		return err
	}
	width := plane.CeilLog2(a.inner.layout.B)
	slope := int(r.ReadUint(width))
	if slope >= a.inner.layout.B {
		return fmt.Errorf("core: decoded slope %d out of range [0,%d)", slope, a.inner.layout.B)
	}
	inv := bitvec.New(a.inner.layout.B)
	seenSentinel := false
	count := 0
	for i := 0; i < a.q; i++ {
		g := int(r.ReadUint(width))
		switch {
		case g == a.inner.layout.B:
			seenSentinel = true
		case g > a.inner.layout.B:
			return fmt.Errorf("core: decoded pointer %d out of range", g)
		case seenSentinel:
			return fmt.Errorf("core: pointer after unused sentinel")
		default:
			inv.Set(g, true)
			count++
		}
	}
	full := r.ReadBool()
	if full != (count == a.q) {
		return fmt.Errorf("core: all-pointers-used flag inconsistent with %d/%d pointers", count, a.q)
	}
	a.inner.slope = slope
	a.inner.inv.CopyFrom(inv)
	return nil
}

var _ scheme.MetadataCodec = (*AegisP)(nil)

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
func (f *PFactory) OverheadBits() int { return plane.CeilLog2(f.L.B)*(1+f.Q) + 1 }

// New implements scheme.Factory.
func (f *PFactory) New() scheme.Scheme {
	s, err := NewP(f.L, f.Q)
	if err != nil {
		panic(err)
	}
	return s
}

var _ scheme.Factory = (*PFactory)(nil)
