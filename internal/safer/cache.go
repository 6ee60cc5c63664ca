package safer

import (
	"fmt"
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
	scheme.Loop
	n        int
	addrBits int
	m        int

	fields     []int
	inv        *bitvec.Vector
	masks      []*bitvec.Vector // allocated once, refilled per field change
	masksBuilt bool             // false until masks match the current fields

	subset    []int
	invGroups []int
}

var (
	_ scheme.Scheme  = (*Cached)(nil)
	_ scheme.Planner = (*Cached)(nil)
)

// NewCached returns a fresh SAFERN-cache instance.
func NewCached(n, nGroups int, view failcache.View) (*Cached, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("safer: block size %d is not a power of two", n)
	}
	if nGroups <= 0 || nGroups&(nGroups-1) != 0 || nGroups > n {
		return nil, fmt.Errorf("safer: group count %d invalid for %d-bit block", nGroups, n)
	}
	c := &Cached{
		Loop:     scheme.NewLoop(n, view),
		n:        n,
		addrBits: log2(n),
		m:        log2(nGroups),
		inv:      bitvec.New(nGroups),
	}
	if c.m > c.addrBits {
		c.m = c.addrBits
	}
	return c, nil
}

// Name implements scheme.Scheme.
func (c *Cached) Name() string { return fmt.Sprintf("SAFER%d-cache", 1<<c.m) }

// OverheadBits implements scheme.Scheme; per-block cost is identical to
// the cache-less SAFER-N — the fail cache is shared chip-level SRAM, as
// the paper accounts it.
func (c *Cached) OverheadBits() int { return OverheadBits(c.n, 1<<c.m) }

// Reset implements scheme.Resettable.  An instance a factory built also
// acquires a fresh fail-cache view, so a finite cache sees a new block
// ID exactly as it would for a freshly constructed instance.
func (c *Cached) Reset() {
	c.Loop.Reset()
	c.fields = c.fields[:0]
	c.inv.Zero()
	c.masksBuilt = false
}

// fieldsFingerprint compresses a position set into a bitmask, the
// From/To form repartition events report for field re-selections.
func fieldsFingerprint(fields []int) int {
	fp := 0
	for _, pos := range fields {
		fp |= 1 << uint(pos)
	}
	return fp
}

func (c *Cached) group(x int, fields []int) int {
	g := 0
	for i, pos := range fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
}

// selectFields enumerates all m-subsets of the address bits and returns
// the first one under which no group holds both a stuck-at-Wrong and a
// stuck-at-Right fault.  ok=false means no position set works and the
// block is dead.  With 9 address bits the search space is at most
// C(9,⌊9/2⌋) = 126 subsets, so exhaustive enumeration is what real
// controller logic could afford too.
func (c *Cached) selectFields(faults []failcache.Fault, wrong []bool) ([]int, bool) {
	if len(faults) == 0 {
		return c.fields, true
	}
	if c.subset == nil {
		c.subset = make([]int, c.m)
	}
	subset := c.subset[:c.m]
	// Initialize to the lexicographically first m-subset {0,1,…,m-1}.
	for i := range subset {
		subset[i] = i
	}
	for {
		if c.fieldsValid(subset, faults, wrong) {
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

// fieldsValid reports whether the position set separates W from R faults.
func (c *Cached) fieldsValid(fields []int, faults []failcache.Fault, wrong []bool) bool {
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if wrong[j] {
				continue
			}
			if c.group(faults[i].Pos, fields) == c.group(faults[j].Pos, fields) {
				return false
			}
		}
	}
	return true
}

func (c *Cached) rebuildMasks() {
	if c.masks == nil {
		c.masks = make([]*bitvec.Vector, 1<<uint(c.m))
		for g := range c.masks {
			c.masks[g] = bitvec.New(c.n)
		}
	}
	// Fewer selected fields than the budget leave the tail groups empty.
	populated := 1 << uint(len(c.fields))
	buildGroupMasks(c.masks[:populated], c.fields, c.n)
	for _, m := range c.masks[populated:] {
		m.Zero()
	}
	c.masksBuilt = true
}

// xorInverted flips the cells of every inverted group in v.
func (c *Cached) xorInverted(v *bitvec.Vector) {
	if !c.masksBuilt {
		c.rebuildMasks()
	}
	c.invGroups = c.inv.AppendOnes(c.invGroups[:0])
	for _, g := range c.invGroups {
		v.XorInto(c.masks[g])
	}
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
	if !equalInts(fields, c.fields) {
		c.Repartition(fieldsFingerprint(c.fields), fieldsFingerprint(fields), len(faults))
		c.fields = append(c.fields[:0], fields...)
		c.rebuildMasks()
	}
	c.inv.Zero()
	for i, f := range faults {
		if wrong[i] {
			c.inv.Set(c.group(f.Pos, c.fields), true)
		}
	}
	return ""
}

// Encode implements scheme.Planner.
func (c *Cached) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	c.xorInverted(phys)
	return len(c.invGroups) > 0
}

// InvertedGroups implements scheme.Planner.
func (c *Cached) InvertedGroups() int { return len(c.invGroups) }

// Read implements scheme.Scheme.
func (c *Cached) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if c.inv.Any() {
		c.xorInverted(dst)
	}
	return dst
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
