// Package core implements the base Aegis error-recovery scheme (§2.2 of
// the paper): partition-and-inversion over the A×B Cartesian-plane
// partition scheme of package plane, without a fail cache.
//
// Per-block bookkeeping is exactly what the paper budgets: a slope
// counter of ⌈log₂B⌉ bits and a B-bit inversion vector whose y-th bit
// records whether group y is stored inverted.
//
// The write path follows §2.2: write, verification-read, derive the
// groups of the revealed stuck-at-Wrong cells, re-partition (increment
// the slope) whenever two known faults collide in a group, set the
// inversion bits so each faulty cell's physical value equals its stuck
// value, rewrite, and repeat until a verification read comes back clean.
// scheme.Loop runs that protocol and Partition holds the state; Aegis
// supplies the slope search.  Every rewrite goes through the PCM model,
// so the extra inversion-write wear the paper discusses (Figure 8's
// "intensive inversion writes") is accounted for.
package core

import (
	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// Aegis is the per-block state of the base (cache-less) Aegis scheme.
// The embedded Partition holds the slope, the inversion vector and the
// write loop; Aegis supplies the collision-free slope search.
type Aegis struct {
	Partition
	pos []int // known fault positions, scratch for Plan
}

var (
	_ scheme.Scheme        = (*Aegis)(nil)
	_ scheme.Planner       = (*Aegis)(nil)
	_ scheme.MetadataCodec = (*Aegis)(nil)
)

// New returns a fresh Aegis instance for one block laid out by l.
func New(l *plane.Layout) *Aegis { return &Aegis{Partition: NewPartition(l, nil)} }

// Name implements scheme.Scheme.
func (a *Aegis) Name() string { return "Aegis " + a.layout.String() }

// Write implements scheme.Scheme.  The controller has no persistent
// fault memory (that is the whole point of the cache-less design): each
// request rediscovers what its data exposes.
func (a *Aegis) Write(blk *pcm.Block, data *bitvec.Vector) error { return a.Run(a, blk, data) }

// Plan implements scheme.Planner.  It re-partitions when two known
// faults share a group — FindCollisionFree starts at the current slope,
// so a configuration that already separates them stays, matching the
// paper's "increment the slope counter" otherwise.
func (a *Aegis) Plan(faults []failcache.Fault, wrong []bool) string {
	a.pos = a.pos[:0]
	for _, f := range faults {
		a.pos = append(a.pos, f.Pos)
	}
	k, ok := a.layout.FindCollisionFree(a.pos, a.slope)
	if !ok {
		return scheme.CauseNoSlope
	}
	a.Adopt(k, faults, wrong)
	return ""
}

// Recoverable reports whether a fault set (bit positions) is tolerable by
// the layout independent of data: some slope puts every fault in its own
// group.  This is the analytic predicate behind the scheme's soft FTC;
// the operational Write path can only fail when this predicate is false
// for the block's full fault set.
func (a *Aegis) Recoverable(faults []int) bool {
	_, ok := a.layout.FindCollisionFree(faults, a.slope)
	return ok
}

// Factory builds per-block Aegis instances over one shared layout.
type Factory struct {
	L *plane.Layout
}

// NewFactory returns a factory for n-bit blocks with parameter B.
func NewFactory(n, b int) (*Factory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	return &Factory{L: l}, nil
}

// MustFactory is NewFactory that panics on error.
func MustFactory(n, b int) *Factory {
	f, err := NewFactory(n, b)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *Factory) Name() string { return "Aegis " + f.L.String() }

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *Factory) OverheadBits() int { return f.L.OverheadBits() }

// New implements scheme.Factory.
func (f *Factory) New() scheme.Scheme { return New(f.L) }

var _ scheme.Factory = (*Factory)(nil)
