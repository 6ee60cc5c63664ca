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
	"aegis/internal/core"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// RW is the per-block state of Aegis-rw.  It shares base Aegis's
// partition state (core.Partition: slope counter, inversion vector,
// write loop and codec) and supplies the W/R-separating slope search.
type RW struct {
	core.Partition
	excluded []bool
}

var (
	_ scheme.Scheme        = (*RW)(nil)
	_ scheme.Planner       = (*RW)(nil)
	_ scheme.MetadataCodec = (*RW)(nil)
)

// NewRW returns a fresh Aegis-rw instance for one block laid out by l,
// consulting the given fail-cache view.
func NewRW(l *plane.Layout, view failcache.View) *RW {
	return &RW{Partition: core.NewPartition(l, view), excluded: make([]bool, l.B)}
}

// Name implements scheme.Scheme.
func (a *RW) Name() string { return "Aegis-rw " + a.Layout().String() }

// excludeMixed marks in excluded every slope under which a W fault
// shares a group with an R fault, and clears the others.  wrong[i] is
// the W/R classification of faults[i] for the data being written.  Only
// W–R pairs exclude a slope, and each pair excludes exactly one
// (Theorem 2) — or none, when the pair shares a rectangle column.
func excludeMixed(l *plane.Layout, excluded []bool, faults []failcache.Fault, wrong []bool) {
	for i := range excluded {
		excluded[i] = false
	}
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if wrong[j] {
				continue
			}
			if k, ok := l.CollidingSlope(faults[i].Pos, faults[j].Pos); ok {
				excluded[k] = true
			}
		}
	}
}

// findSlope returns a slope under which no group mixes W and R faults,
// searching from the current slope, or ok=false.
func (a *RW) findSlope(faults []failcache.Fault, wrong []bool) (int, bool) {
	l := a.Layout()
	excludeMixed(l, a.excluded, faults, wrong)
	for d := 0; d < l.B; d++ {
		k := (a.Slope() + d) % l.B
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
	a.Adopt(k, faults, wrong)
	return ""
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
