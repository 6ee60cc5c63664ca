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
// scheme.Loop runs that protocol; this package supplies the slope and
// inversion decision.  Every rewrite goes through the PCM model, so the extra inversion-write
// wear the paper discusses (Figure 8's "intensive inversion writes") is
// accounted for.
package core

import (
	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// Aegis is the per-block state of the base (cache-less) Aegis scheme.
// The embedded scheme.Loop drives the write path; Aegis supplies the
// partition decision.
type Aegis struct {
	scheme.Loop
	layout *plane.Layout
	slope  int
	inv    *bitvec.Vector // inversion vector: bit y set ⇔ group y stored inverted
	pos    []int          // known fault positions, scratch for Plan
}

var (
	_ scheme.Scheme  = (*Aegis)(nil)
	_ scheme.Planner = (*Aegis)(nil)
)

// New returns a fresh Aegis instance for one block laid out by l.
func New(l *plane.Layout) *Aegis {
	return &Aegis{Loop: scheme.NewLoop(l.N, nil), layout: l, inv: bitvec.New(l.B)}
}

// Layout returns the partition layout the instance uses.
func (a *Aegis) Layout() *plane.Layout { return a.layout }

// Name implements scheme.Scheme.
func (a *Aegis) Name() string { return "Aegis " + a.layout.String() }

// OverheadBits implements scheme.Scheme: ⌈log₂B⌉ + B (§2.3).
func (a *Aegis) OverheadBits() int { return a.layout.OverheadBits() }

// Slope returns the current slope-counter value (exported for tests and
// the partition visualizer).
func (a *Aegis) Slope() int { return a.slope }

// InversionVector returns a copy of the current inversion vector.
func (a *Aegis) InversionVector() *bitvec.Vector { return a.inv.Clone() }

// Reset implements scheme.Resettable: slope 0, empty inversion vector,
// zeroed counters, no tracer — the state New returns.
func (a *Aegis) Reset() {
	a.Loop.Reset()
	a.slope = 0
	a.inv.Zero()
}

// Write implements scheme.Scheme.  The controller has no persistent
// fault memory (that is the whole point of the cache-less design): each
// request rediscovers what its data exposes.
func (a *Aegis) Write(blk *pcm.Block, data *bitvec.Vector) error { return a.Run(a, blk, data) }

// Plan implements scheme.Planner.  It re-partitions when two known
// faults share a group — FindCollisionFree starts at the current slope,
// so a configuration that already separates them stays, matching the
// paper's "increment the slope counter" otherwise — and inverts the
// group of every wrong fault, so each faulty cell's physical value
// equals its stuck value.  Groups without a known fault are stored
// plain.
func (a *Aegis) Plan(faults []failcache.Fault, wrong []bool) string {
	a.pos = a.pos[:0]
	for _, f := range faults {
		a.pos = append(a.pos, f.Pos)
	}
	k, ok := a.layout.FindCollisionFree(a.pos, a.slope)
	if !ok {
		return scheme.CauseNoSlope
	}
	if k != a.slope {
		a.Repartition(a.slope, k, len(faults))
		a.slope = k
	}
	a.inv.Zero()
	for i, f := range faults {
		if wrong[i] {
			a.inv.Set(a.layout.Group(f.Pos, k), true)
		}
	}
	return ""
}

// Encode implements scheme.Planner: data with the inverted groups
// flipped under the current slope.
func (a *Aegis) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	a.layout.XorGroups(phys, a.inv, a.slope)
	return a.inv.Any()
}

// InvertedGroups implements scheme.Planner.
func (a *Aegis) InvertedGroups() int { return a.inv.PopCount() }

// Read implements scheme.Scheme: logical data is the physical contents
// with the inverted groups flipped back.
func (a *Aegis) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	a.layout.XorGroups(dst, a.inv, a.slope)
	return dst
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
