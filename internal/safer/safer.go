// Package safer implements the SAFER stuck-at-fault recovery scheme
// (Seong et al., MICRO 2010), the primary partition-and-inversion
// baseline the Aegis paper compares against.
//
// SAFER partitions a 2^n-bit data block by selecting up to m bit
// positions of the in-block cell address to form a "partition vector"
// (the Aegis paper's term): the group of a cell is the projection of its
// address onto the selected positions, so m selected positions induce at
// most 2^m = N groups.  When a newly detected fault collides with an
// existing one (equal projections), SAFER expands the vector with a bit
// position at which the two addresses differ — which always exists and
// always separates exactly that pair while keeping all other pairs
// separated (adding a position only refines the partition).  The vector
// can only grow, so with m positions the scheme guarantees m+1 faults
// (hard FTC) and fails at the first collision it cannot resolve.
//
// Cached is the cache-assisted form the paper evaluates as
// "SAFERN-cache": with every fault's position and stuck value known
// before the write, the controller re-selects the best m positions from
// scratch on every write and only needs to separate stuck-at-Wrong from
// stuck-at-Right cells, letting groups hold multiple same-type faults.
package safer

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// SAFER is the per-block state of the cache-less SAFER-N scheme.  The
// embedded partition holds the partition vector, the inversion bits and
// the write loop; SAFER supplies the grow-on-collision decision.
type SAFER struct {
	partition
}

var (
	_ scheme.Scheme        = (*SAFER)(nil)
	_ scheme.Planner       = (*SAFER)(nil)
	_ scheme.MetadataCodec = (*SAFER)(nil)
)

// New returns a fresh SAFER instance for an n-bit block with at most
// nGroups = 2^m groups.  n and nGroups must be powers of two with
// nGroups ≤ n.
func New(n, nGroups int) (*SAFER, error) {
	p, err := newPartition(n, nGroups, nil)
	if err != nil {
		return nil, err
	}
	return &SAFER{p}, nil
}

// Name implements scheme.Scheme.
func (s *SAFER) Name() string { return fmt.Sprintf("SAFER%d", 1<<s.m) }

// OverheadBits is the SAFER-N cost formula for an n-bit block.
func OverheadBits(n, nGroups int) int {
	m := log2(nGroups)
	return m*plane.CeilLog2(log2(n)) + nGroups + plane.CeilLog2(m+1)
}

// addFieldFor expands the partition vector with a position at which the
// two colliding addresses differ.  Among the candidates it picks the one
// leaving the fewest colliding pairs over all currently known faults —
// the greedy selection of the SAFER paper's dynamic partitioning.  It
// reports false when the vector is full (block death); a differing
// unselected position otherwise always exists, because equal projections
// with all differing bits selected is a contradiction.
func (s *SAFER) addFieldFor(faults []failcache.Fault, x1, x2 int) bool {
	if len(s.fields) >= s.m {
		return false
	}
	mask := fieldMask(s.fields)
	candidates := (x1 ^ x2) &^ mask
	best, bestCollisions := -1, -1
	for pos := 0; pos < s.addrBits; pos++ {
		if candidates>>uint(pos)&1 == 0 {
			continue
		}
		c := collidingPairs(faults, mask|1<<uint(pos))
		if bestCollisions < 0 || c < bestCollisions {
			best, bestCollisions = pos, c
		}
	}
	if best < 0 {
		// Unreachable for genuinely colliding pairs; be defensive.
		return false
	}
	s.setFields(append(s.fields, best))
	// From/To report the partition-vector size: SAFER re-partitions by
	// growing the selected-position set, never by swapping a slope.
	s.Repartition(len(s.fields)-1, len(s.fields), len(faults))
	return true
}

// collidingPairs counts fault pairs whose addresses agree under mask,
// that is, pairs sharing a group.
func collidingPairs(faults []failcache.Fault, mask int) int {
	c := 0
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			if (faults[i].Pos^faults[j].Pos)&mask == 0 {
				c++
			}
		}
	}
	return c
}

// separateFaults grows the partition vector until all faults have
// distinct projections.  It reports false when the vector budget is
// exhausted first.
func (s *SAFER) separateFaults(faults []failcache.Fault) bool {
	for {
		collision := false
		mask := fieldMask(s.fields)
		for i := 0; i < len(faults) && !collision; i++ {
			for j := i + 1; j < len(faults); j++ {
				if (faults[i].Pos^faults[j].Pos)&mask == 0 {
					if !s.addFieldFor(faults, faults[i].Pos, faults[j].Pos) {
						return false
					}
					collision = true
					break
				}
			}
		}
		if !collision {
			return true
		}
	}
}

// Write implements scheme.Scheme: write, verify, grow the partition
// vector around the revealed faults, rewrite.
func (s *SAFER) Write(blk *pcm.Block, data *bitvec.Vector) error { return s.Run(s, blk, data) }

// Plan implements scheme.Planner: separate the known faults by growing
// the partition vector, then invert the group of every wrong fault.
func (s *SAFER) Plan(faults []failcache.Fault, wrong []bool) string {
	if !s.separateFaults(faults) {
		return scheme.CauseVectorFull
	}
	s.invertWrong(faults, wrong)
	return ""
}

// Factory builds SAFER-N instances.
type Factory struct {
	N      int // block bits
	Groups int
}

// NewFactory returns a SAFER-N factory after validating the parameters.
func NewFactory(n, nGroups int) (*Factory, error) {
	if _, err := New(n, nGroups); err != nil {
		return nil, err
	}
	return &Factory{N: n, Groups: nGroups}, nil
}

// MustFactory is NewFactory that panics on error.
func MustFactory(n, nGroups int) *Factory {
	f, err := NewFactory(n, nGroups)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *Factory) Name() string { return fmt.Sprintf("SAFER%d", f.Groups) }

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *Factory) OverheadBits() int { return OverheadBits(f.N, f.Groups) }

// New implements scheme.Factory.
func (f *Factory) New() scheme.Scheme {
	s, err := New(f.N, f.Groups)
	if err != nil {
		panic(err) // validated at factory construction
	}
	return s
}

var _ scheme.Factory = (*Factory)(nil)
