package safer

import (
	"fmt"
	"slices"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Cached is the per-block state of SAFERN-cache: SAFER with a fail cache
// that reveals every fault (position and stuck value) before the write.
//
// Two things change relative to the cache-less scheme.  First, because
// the partition fields are part of the per-block bookkeeping that is
// rewritten on every write anyway, the controller is free to re-select
// the best m positions from scratch for each write rather than only ever
// growing the vector.  Second, with stuck values known, a group may hold
// any number of same-type faults; only stuck-at-Wrong and stuck-at-Right
// cells must not share a group.  Both relaxations are what let
// "SAFERN-cache" tolerate far more faults in the paper's Figure 8.
type Cached struct {
	partition
	subset []int
	// diff holds the address difference w^r of every W fault w and R
	// fault r of the current Plan, one bit per difference.
	diff *bitvec.Vector
}

var (
	_ scheme.Scheme        = (*Cached)(nil)
	_ scheme.Planner       = (*Cached)(nil)
	_ scheme.MetadataCodec = (*Cached)(nil)
)

// NewCached returns a fresh SAFERN-cache instance.
func NewCached(n, nGroups int, view failcache.View) (*Cached, error) {
	p, err := newPartition(n, nGroups, view)
	if err != nil {
		return nil, err
	}
	return &Cached{partition: p}, nil
}

// Name implements scheme.Scheme.
func (c *Cached) Name() string { return fmt.Sprintf("SAFER%d-cache", 1<<c.m) }

// selectFields enumerates all m-subsets of the address bits in
// lexicographic order and returns the first one under which no group
// holds both a stuck-at-Wrong and a stuck-at-Right fault.  ok=false
// means no position set works and the block is dead.  With 9 address
// bits the search space is at most C(9,⌊9/2⌋) = 126 subsets, so
// exhaustive enumeration is what real controller logic could afford
// too.
//
// A W fault w and an R fault r share a group exactly when the selected
// positions miss every bit of w^r, so the search builds the set of
// W–R differences once and tests each subset against it with a few
// word operations (separates).
func (c *Cached) selectFields(faults []failcache.Fault, wrong []bool) ([]int, bool) {
	if len(faults) == 0 {
		return c.fields, true
	}
	if c.subset == nil {
		c.subset = make([]int, c.m)
		c.diff = bitvec.New(c.n)
	}
	subset := c.subset[:c.m]
	// Initialize to the lexicographically first m-subset {0,1,…,m-1}.
	for i := range subset {
		subset[i] = i
	}
	if !c.buildDiff(faults, wrong) {
		return subset, true
	}
	diff := c.diff.Words()
	for {
		if separates(diff, fieldMask(subset)) {
			return subset, true
		}
		// Advance to the next m-subset of {0,…,addrBits-1}.
		i := c.m - 1
		for i >= 0 && subset[i] == c.addrBits-c.m+i {
			i--
		}
		if i < 0 {
			return nil, false
		}
		subset[i]++
		for j := i + 1; j < c.m; j++ {
			subset[j] = subset[j-1] + 1
		}
	}
}

// buildDiff fills c.diff with the W–R address differences of faults
// and reports whether there are any: false when every fault is W or
// every fault is R, which any subset separates.
func (c *Cached) buildDiff(faults []failcache.Fault, wrong []bool) bool {
	c.diff.Zero()
	found := false
	for i, w := range faults {
		if !wrong[i] {
			continue
		}
		for j, r := range faults {
			if !wrong[j] {
				c.diff.Set(w.Pos^r.Pos, true)
				found = true
			}
		}
	}
	return found
}

// separates reports whether every address difference in diff has a bit
// in mask, that is, whether the positions of mask separate W from R
// faults.  In word w, a difference is covered outright when w's index
// has a high bit of mask, and otherwise needs an in-word bit from one
// of mask's low patterns.
func separates(diff []uint64, mask int) bool {
	var low uint64
	for p := range lowPattern {
		if mask>>uint(p)&1 == 1 {
			low |= lowPattern[p]
		}
	}
	high := mask >> 6
	for w, d := range diff {
		if w&high == 0 && d&^low != 0 {
			return false
		}
	}
	return true
}

// Write implements scheme.Scheme.
func (c *Cached) Write(blk *pcm.Block, data *bitvec.Vector) error { return c.Run(c, blk, data) }

// Plan implements scheme.Planner: re-select the position set from
// scratch for the known faults, then invert every group holding a
// wrong fault.
func (c *Cached) Plan(faults []failcache.Fault, wrong []bool) string {
	fields, ok := c.selectFields(faults, wrong)
	if !ok {
		return scheme.CauseNoFieldSet
	}
	if !slices.Equal(fields, c.fields) {
		c.Repartition(fieldMask(c.fields), fieldMask(fields), len(faults))
		c.setFields(fields)
	}
	c.invertWrong(faults, wrong)
	return ""
}

// CachedFactory builds SAFERN-cache instances.
type CachedFactory struct {
	N      int
	Groups int
	Cache  failcache.Provider

	nextID atomic.Uint64
}

// NewCachedFactory returns a SAFERN-cache factory.
func NewCachedFactory(n, nGroups int, cache failcache.Provider) (*CachedFactory, error) {
	if _, err := NewCached(n, nGroups, nil); err != nil {
		return nil, err
	}
	return &CachedFactory{N: n, Groups: nGroups, Cache: cache}, nil
}

// MustCachedFactory is NewCachedFactory that panics on error.
func MustCachedFactory(n, nGroups int, cache failcache.Provider) *CachedFactory {
	f, err := NewCachedFactory(n, nGroups, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *CachedFactory) Name() string { return fmt.Sprintf("SAFER%d-cache", f.Groups) }

// BlockBits implements scheme.Factory.
func (f *CachedFactory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *CachedFactory) OverheadBits() int { return OverheadBits(f.N, f.Groups) }

// New implements scheme.Factory.
func (f *CachedFactory) New() scheme.Scheme {
	c, err := NewCached(f.N, f.Groups, nil)
	if err != nil {
		panic(err)
	}
	c.BindCache(f.Cache, &f.nextID)
	return c
}

var _ scheme.Factory = (*CachedFactory)(nil)
