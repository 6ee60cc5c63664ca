// Package aegisrw implements the two fail-cache-assisted Aegis variants
// of §2.4 of the paper.
//
// Aegis-rw knows, before a write, where every stuck cell is and what its
// stuck value is (from a fail cache).  Classifying each fault as
// stuck-at-Wrong (stuck value ≠ datum) or stuck-at-Right lets a group
// hold arbitrarily many faults of the same kind: inverting the group
// fixes all of its W faults at once.  The slope therefore only needs to
// separate W faults from R faults, and at most f_W·f_R slopes can be
// invalid — the collision-slope lookup of plane.CollidingSlope is the
// software form of the n×n×⌈log₂B⌉ ROM the paper describes.
//
// Aegis-rw-p additionally replaces the B-bit inversion vector with p
// group pointers.  By the pigeonhole principle either the groups that
// need inversion or the groups that must NOT be inverted number at most
// ⌊f/2⌋, so recording the smaller side (plus a whole-block-inversion
// mode bit) suffices.
package aegisrw

import (
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// RW is the per-block state of Aegis-rw.  The embedded scheme.Loop
// drives the write path; RW supplies the W/R-separating slope decision.
type RW struct {
	scheme.Loop
	layout *plane.Layout
	slope  int
	inv    *bitvec.Vector

	excluded []bool
}

var (
	_ scheme.Scheme  = (*RW)(nil)
	_ scheme.Planner = (*RW)(nil)
)

// NewRW returns a fresh Aegis-rw instance for one block laid out by l,
// consulting the given fail-cache view.
func NewRW(l *plane.Layout, view failcache.View) *RW {
	return &RW{
		Loop:     scheme.NewLoop(l.N, view),
		layout:   l,
		inv:      bitvec.New(l.B),
		excluded: make([]bool, l.B),
	}
}

// Name implements scheme.Scheme.
func (a *RW) Name() string { return "Aegis-rw " + a.layout.String() }

// OverheadBits implements scheme.Scheme.  Aegis-rw with the same A×B
// formation costs the same as base Aegis (§2.4): slope counter plus
// inversion vector.  The fail cache is shared chip-level SRAM and is not
// part of the per-block budget, exactly as the paper accounts it.
func (a *RW) OverheadBits() int { return a.layout.OverheadBits() }

// Slope returns the current slope counter value.
func (a *RW) Slope() int { return a.slope }

// Reset implements scheme.Resettable.  An instance a factory built also
// acquires a fresh fail-cache view, so a finite cache sees a new block
// ID exactly as it would for a freshly constructed instance.
func (a *RW) Reset() {
	a.Loop.Reset()
	a.slope = 0
	a.inv.Zero()
}

// findSlope returns a slope under which no group mixes W and R faults,
// searching from the current slope, or ok=false.  wrong[i] is the W/R
// classification of faults[i] for the data being written.
func (a *RW) findSlope(faults []failcache.Fault, wrong []bool) (int, bool) {
	for i := range a.excluded {
		a.excluded[i] = false
	}
	// Only W–R pairs exclude a slope, and each pair excludes exactly
	// one (Theorem 2) — or none, when the pair shares a rectangle
	// column.
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if wrong[j] {
				continue
			}
			if k, ok := a.layout.CollidingSlope(faults[i].Pos, faults[j].Pos); ok {
				a.excluded[k] = true
			}
		}
	}
	for d := 0; d < a.layout.B; d++ {
		k := (a.slope + d) % a.layout.B
		if !a.excluded[k] {
			return k, true
		}
	}
	return 0, false
}

// Write implements scheme.Scheme.  A write normally completes in one
// pass; extra passes happen only when a cell dies during this very write
// or, with a finite cache, when a fault was evicted and must be
// rediscovered.
func (a *RW) Write(blk *pcm.Block, data *bitvec.Vector) error { return a.Run(a, blk, data) }

// Plan implements scheme.Planner: find a slope that separates W from R
// faults, then invert every group holding a W fault.
func (a *RW) Plan(faults []failcache.Fault, wrong []bool) string {
	k, ok := a.findSlope(faults, wrong)
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

// Encode implements scheme.Planner.
func (a *RW) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	a.layout.XorGroups(phys, a.inv, a.slope)
	return a.inv.Any()
}

// InvertedGroups implements scheme.Planner.
func (a *RW) InvertedGroups() int { return a.inv.PopCount() }

// Read implements scheme.Scheme.
func (a *RW) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	a.layout.XorGroups(dst, a.inv, a.slope)
	return dst
}

// Recoverable reports whether a fault classification (positions plus W/R
// labels) admits a valid slope.  Exposed for tests and analyses.
func (a *RW) Recoverable(faults []failcache.Fault, wrong []bool) bool {
	_, ok := a.findSlope(faults, wrong)
	return ok
}

// RWFactory builds Aegis-rw instances.
type RWFactory struct {
	L     *plane.Layout
	Cache failcache.Provider

	nextID atomic.Uint64
}

// NewRWFactory returns a factory for n-bit blocks with parameter B using
// the given fail cache.
func NewRWFactory(n, b int, cache failcache.Provider) (*RWFactory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	return &RWFactory{L: l, Cache: cache}, nil
}

// MustRWFactory is NewRWFactory that panics on error.
func MustRWFactory(n, b int, cache failcache.Provider) *RWFactory {
	f, err := NewRWFactory(n, b, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *RWFactory) Name() string { return "Aegis-rw " + f.L.String() }

// BlockBits implements scheme.Factory.
func (f *RWFactory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *RWFactory) OverheadBits() int { return f.L.OverheadBits() }

// New implements scheme.Factory.
func (f *RWFactory) New() scheme.Scheme {
	s := NewRW(f.L, nil)
	s.BindCache(f.Cache, &f.nextID)
	return s
}

var _ scheme.Factory = (*RWFactory)(nil)
