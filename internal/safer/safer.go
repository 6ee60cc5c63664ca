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
// SAFERCache is the cache-assisted form the paper evaluates as
// "SAFERN-cache": with every fault's position and stuck value known
// before the write, the controller re-selects the best m positions from
// scratch on every write and only needs to separate stuck-at-Wrong from
// stuck-at-Right cells, letting groups hold multiple same-type faults.
package safer

import (
	"fmt"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
)

// addrMaskCache shares, per block size, the address-bit pattern masks:
// addrBitMasks(n)[p] is the mask of cells whose in-block address has
// bit p set.  Group masks are intersections of these patterns (and
// their complements), which turns per-cell projection loops into a few
// word-level ANDs.  The vectors are immutable once published.
var addrMaskCache sync.Map // block bits -> []*bitvec.Vector

func addrBitMasks(n int) []*bitvec.Vector {
	if v, ok := addrMaskCache.Load(n); ok {
		return v.([]*bitvec.Vector)
	}
	masks := make([]*bitvec.Vector, log2(n))
	for p := range masks {
		m := bitvec.New(n)
		for x := 0; x < n; x++ {
			if x>>uint(p)&1 == 1 {
				m.Set(x, true)
			}
		}
		masks[p] = m
	}
	v, _ := addrMaskCache.LoadOrStore(n, masks)
	return v.([]*bitvec.Vector)
}

// buildGroupMasks fills masks[g] with the member mask of group g under
// the given partition vector: the cells whose address projects onto g.
// masks must hold 1<<len(fields) vectors of n bits each.
func buildGroupMasks(masks []*bitvec.Vector, fields []int, n int) {
	addr := addrBitMasks(n)
	for g, m := range masks {
		m.Fill(true)
		for i, pos := range fields {
			if g>>uint(i)&1 == 1 {
				m.AndInto(addr[pos])
			} else {
				m.AndNotInto(addr[pos])
			}
		}
	}
}

// SAFER is the per-block state of the cache-less SAFER-N scheme.  The
// embedded scheme.Loop drives the write path; SAFER supplies the
// partition-vector decision.
type SAFER struct {
	scheme.Loop
	n        int // block bits (power of two)
	addrBits int // log2 n
	m        int // maximum partition-vector size (N = 2^m groups)

	fields []int          // selected address bit positions, in selection order
	inv    *bitvec.Vector // inversion bits, one per group (2^m)

	// Group member masks for the current fields.  masks is a prefix of
	// maskStore (the persistent allocation, grown on demand and reused
	// across rebuilds); masksBuilt is false after a field change.
	masks      []*bitvec.Vector
	maskStore  []*bitvec.Vector
	masksBuilt bool

	invGroups []int
}

var (
	_ scheme.Scheme  = (*SAFER)(nil)
	_ scheme.Planner = (*SAFER)(nil)
)

// New returns a fresh SAFER instance for an n-bit block with at most
// nGroups = 2^m groups.  n and nGroups must be powers of two with
// nGroups ≤ n.
func New(n, nGroups int) (*SAFER, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("safer: block size %d is not a power of two", n)
	}
	if nGroups <= 0 || nGroups&(nGroups-1) != 0 || nGroups > n {
		return nil, fmt.Errorf("safer: group count %d invalid for %d-bit block", nGroups, n)
	}
	return &SAFER{
		Loop:     scheme.NewLoop(n, nil),
		n:        n,
		addrBits: log2(n),
		m:        log2(nGroups),
		inv:      bitvec.New(nGroups),
	}, nil
}

func log2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Name implements scheme.Scheme.
func (s *SAFER) Name() string { return fmt.Sprintf("SAFER%d", 1<<s.m) }

// OverheadBits implements scheme.Scheme: m position fields of
// ⌈log₂ log₂ n⌉ bits each, 2^m inversion bits, and a ⌈log₂(m+1)⌉-bit
// counter of how many fields are in use.  This reproduces the SAFER row
// of the paper's Table 1 exactly.
func (s *SAFER) OverheadBits() int { return OverheadBits(s.n, 1<<s.m) }

// OverheadBits is the SAFER-N cost formula for an n-bit block.
func OverheadBits(n, nGroups int) int {
	m := log2(nGroups)
	return m*plane.CeilLog2(log2(n)) + nGroups + plane.CeilLog2(m+1)
}

// Fields returns the selected address-bit positions (for tests).
func (s *SAFER) Fields() []int { return append([]int(nil), s.fields...) }

// Reset implements scheme.Resettable: empty partition vector, cleared
// inversion bits, zeroed counters, no tracer — the state New returns.
// The mask store keeps its allocation; masks are rebuilt on demand.
func (s *SAFER) Reset() {
	s.Loop.Reset()
	s.fields = s.fields[:0]
	s.inv.Zero()
	s.masksBuilt = false
}

// group projects a cell address onto the selected positions.
func (s *SAFER) group(x int) int {
	g := 0
	for i, pos := range s.fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
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
	diff := x1 ^ x2
	best, bestCollisions := -1, -1
	for pos := 0; pos < s.addrBits; pos++ {
		if diff>>uint(pos)&1 == 0 {
			continue
		}
		used := false
		for _, f := range s.fields {
			if f == pos {
				used = true
				break
			}
		}
		if used {
			continue
		}
		s.fields = append(s.fields, pos)
		c := s.collidingPairs(faults)
		s.fields = s.fields[:len(s.fields)-1]
		if bestCollisions < 0 || c < bestCollisions {
			best, bestCollisions = pos, c
		}
	}
	if best < 0 {
		// Unreachable for genuinely colliding pairs; be defensive.
		return false
	}
	s.fields = append(s.fields, best)
	s.masksBuilt = false
	// From/To report the partition-vector size: SAFER re-partitions by
	// growing the selected-position set, never by swapping a slope.
	s.Repartition(len(s.fields)-1, len(s.fields), len(faults))
	return true
}

// collidingPairs counts fault pairs sharing a group under the current
// fields.
func (s *SAFER) collidingPairs(faults []failcache.Fault) int {
	c := 0
	for i := range faults {
		gi := s.group(faults[i].Pos)
		for j := i + 1; j < len(faults); j++ {
			if gi == s.group(faults[j].Pos) {
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
		for i := 0; i < len(faults) && !collision; i++ {
			for j := i + 1; j < len(faults); j++ {
				if s.group(faults[i].Pos) == s.group(faults[j].Pos) {
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

// groupMasks returns the member masks of the current partition,
// rebuilding them after a field change.
func (s *SAFER) groupMasks() []*bitvec.Vector {
	if s.masksBuilt {
		return s.masks
	}
	want := 1 << uint(len(s.fields))
	for len(s.maskStore) < want {
		s.maskStore = append(s.maskStore, bitvec.New(s.n))
	}
	s.masks = s.maskStore[:want]
	buildGroupMasks(s.masks, s.fields, s.n)
	s.masksBuilt = true
	return s.masks
}

// xorInverted flips the cells of every inverted group in v.
func (s *SAFER) xorInverted(v *bitvec.Vector) {
	masks := s.groupMasks()
	s.invGroups = s.inv.AppendOnes(s.invGroups[:0])
	for _, g := range s.invGroups {
		if g < len(masks) {
			v.XorInto(masks[g])
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
	s.inv.Zero()
	for i, f := range faults {
		if wrong[i] {
			s.inv.Set(s.group(f.Pos), true)
		}
	}
	return ""
}

// Encode implements scheme.Planner.
func (s *SAFER) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	if !s.inv.Any() {
		return false
	}
	s.xorInverted(phys)
	return true
}

// InvertedGroups implements scheme.Planner.
func (s *SAFER) InvertedGroups() int { return s.inv.PopCount() }

// Read implements scheme.Scheme.
func (s *SAFER) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if s.inv.Any() {
		s.xorInverted(dst)
	}
	return dst
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
