package aegisrw

import (
	"fmt"
	"slices"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// RWP is the per-block state of Aegis-rw-p: Aegis-rw with the B-bit
// inversion vector replaced by at most P group pointers (§2.4).
//
// When the groups containing W faults fit in the pointer budget they are
// recorded directly and inverted ("direct" mode).  Otherwise, if the
// groups containing R faults fit, those are recorded and everything else
// is inverted ("complement" mode: the paper describes the equivalent
// read path as "invert the groups identified by the pointers, then
// invert the entire block").  The pigeonhole principle guarantees one of
// the two sides is at most ⌊f/2⌋ group-wise, but a fixed small P can
// still be exceeded — that soft failure mode is exactly what Figure 10
// sweeps.
type RWP struct {
	scheme.Loop
	layout *plane.Layout
	p      int

	slope      int
	complement bool  // true: pointers list the NOT-inverted groups
	pointers   []int // group IDs, ≤ P of them

	maskBuf          *bitvec.Vector
	excluded         []bool
	wGroups, rGroups []int // distinct W/R group scratch for planSlope
}

var (
	_ scheme.Scheme        = (*RWP)(nil)
	_ scheme.Planner       = (*RWP)(nil)
	_ scheme.MetadataCodec = (*RWP)(nil)
)

// NewRWP returns a fresh Aegis-rw-p instance with a budget of p group
// pointers.
func NewRWP(l *plane.Layout, view failcache.View, p int) *RWP {
	if p < 0 {
		panic(fmt.Sprintf("aegisrw: negative pointer budget %d", p))
	}
	return &RWP{
		Loop:     scheme.NewLoop(l.N, view),
		layout:   l,
		p:        p,
		pointers: make([]int, 0, p),
		maskBuf:  bitvec.New(l.N),
		excluded: make([]bool, l.B),
	}
}

// Name implements scheme.Scheme.
func (a *RWP) Name() string { return fmt.Sprintf("Aegis-rw-p %s p=%d", a.layout, a.p) }

// OverheadBits implements scheme.Scheme: a slope counter, p group
// pointers of ⌈log₂B⌉ bits, one mode bit (whole-block inversion) and one
// bit flagging whether all pointers are in use.
func (a *RWP) OverheadBits() int { return a.codec().Bits() }

// codec is the §2.4 metadata layout OverheadBits describes.
func (a *RWP) codec() core.PointerCodec { return core.PointerCodec{L: a.layout, P: a.p, Mode: true} }

// Pointers returns the currently recorded group pointers (for tests).
func (a *RWP) Pointers() []int { return append([]int(nil), a.pointers...) }

// Complement reports whether the scheme is in complement (whole-block
// inversion) mode.
func (a *RWP) Complement() bool { return a.complement }

// Slope returns the current slope counter value.
func (a *RWP) Slope() int { return a.slope }

// Reset implements scheme.Resettable.  An instance a factory built also
// acquires a fresh fail-cache view, so a finite cache sees a new block
// ID exactly as it would for a freshly constructed instance.
func (a *RWP) Reset() {
	a.Loop.Reset()
	a.slope = 0
	a.complement = false
	a.pointers = a.pointers[:0]
}

// planSlope finds, starting from the current slope, a slope that (a)
// separates W from R faults and (b) fits the pointer budget: the groups
// holding W faults number ≤ P, or the groups holding R faults number
// ≤ P.  It returns the slope, the pointer list and the mode.
func (a *RWP) planSlope(faults []failcache.Fault, wrong []bool) (k int, pointers []int, complement, ok bool) {
	excludeMixed(a.layout, a.excluded, faults, wrong)
	for d := 0; d < a.layout.B; d++ {
		k = (a.slope + d) % a.layout.B
		if a.excluded[k] {
			continue
		}
		// Count distinct W-groups and R-groups under slope k.
		wGroups, rGroups := a.wGroups[:0], a.rGroups[:0]
		for i, f := range faults {
			g := a.layout.Group(f.Pos, k)
			if wrong[i] {
				if !slices.Contains(wGroups, g) {
					wGroups = append(wGroups, g)
				}
			} else if !slices.Contains(rGroups, g) {
				rGroups = append(rGroups, g)
			}
		}
		a.wGroups, a.rGroups = wGroups, rGroups
		if len(wGroups) <= a.p {
			return k, wGroups, false, true
		}
		if len(rGroups) <= a.p {
			return k, rGroups, true, true
		}
	}
	return 0, nil, false, false
}

// invertedMask builds, into the shared scratch buffer, the block mask of
// cells stored inverted under the current slope, pointers and mode.
func (a *RWP) invertedMask() *bitvec.Vector {
	mask := a.maskBuf
	mask.Fill(a.complement)
	for _, g := range a.pointers {
		mask.XorInto(a.layout.GroupMask(g, a.slope))
	}
	return mask
}

// Write implements scheme.Scheme.
func (a *RWP) Write(blk *pcm.Block, data *bitvec.Vector) error { return a.Run(a, blk, data) }

// Plan implements scheme.Planner: record the slope, pointer set and mode
// planSlope picks.  planSlope fails only when every W/R-separating
// slope exceeds the pointer budget on both sides (or none exists).
func (a *RWP) Plan(faults []failcache.Fault, wrong []bool) string {
	k, pointers, complement, ok := a.planSlope(faults, wrong)
	if !ok {
		return scheme.CausePointerBudget
	}
	if k != a.slope {
		a.Repartition(a.slope, k, len(faults))
		a.slope = k
	}
	a.pointers = append(a.pointers[:0], pointers...)
	a.complement = complement
	return ""
}

// Encode implements scheme.Planner.
func (a *RWP) Encode(data, phys *bitvec.Vector) bool {
	mask := a.invertedMask()
	phys.Xor(data, mask)
	return mask.Any()
}

// InvertedGroups implements scheme.Planner.  In complement mode the
// pointers name the groups left plain; every other group is inverted.
func (a *RWP) InvertedGroups() int {
	if a.complement {
		return a.layout.B - len(a.pointers)
	}
	return len(a.pointers)
}

// Read implements scheme.Scheme.
func (a *RWP) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	mask := a.invertedMask()
	dst.Xor(dst, mask)
	return dst
}

// MarshalBits implements scheme.MetadataCodec.
func (a *RWP) MarshalBits() *bitvec.Vector {
	return a.codec().Marshal(a.slope, a.pointers, a.complement)
}

// UnmarshalBits implements scheme.MetadataCodec.
func (a *RWP) UnmarshalBits(v *bitvec.Vector) error {
	slope, pointers, complement, err := a.codec().Unmarshal(v)
	if err != nil {
		return err
	}
	a.slope = slope
	a.pointers = append(a.pointers[:0], pointers...)
	a.complement = complement
	return nil
}

// RWPFactory builds Aegis-rw-p instances.
type RWPFactory struct {
	L     *plane.Layout
	Cache failcache.Provider
	P     int

	nextID atomic.Uint64
}

// NewRWPFactory returns a factory for n-bit blocks with parameter B and a
// budget of p group pointers, using the given fail cache.
func NewRWPFactory(n, b, p int, cache failcache.Provider) (*RWPFactory, error) {
	l, err := plane.NewLayout(n, b)
	if err != nil {
		return nil, err
	}
	if p < 0 {
		return nil, fmt.Errorf("aegisrw: negative pointer budget %d", p)
	}
	return &RWPFactory{L: l, Cache: cache, P: p}, nil
}

// MustRWPFactory is NewRWPFactory that panics on error.
func MustRWPFactory(n, b, p int, cache failcache.Provider) *RWPFactory {
	f, err := NewRWPFactory(n, b, p, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *RWPFactory) Name() string { return fmt.Sprintf("Aegis-rw-p %s p=%d", f.L, f.P) }

// BlockBits implements scheme.Factory.
func (f *RWPFactory) BlockBits() int { return f.L.N }

// OverheadBits implements scheme.Factory.
func (f *RWPFactory) OverheadBits() int {
	return core.PointerCodec{L: f.L, P: f.P, Mode: true}.Bits()
}

// New implements scheme.Factory.
func (f *RWPFactory) New() scheme.Scheme {
	s := NewRWP(f.L, nil, f.P)
	s.BindCache(f.Cache, &f.nextID)
	return s
}

var _ scheme.Factory = (*RWPFactory)(nil)
