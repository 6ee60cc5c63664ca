package safer

import (
	"fmt"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
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

func log2(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// partition is the per-block state SAFER and SAFER-cache share: the
// write loop, the selected address-bit positions (the partition vector)
// and one inversion bit per group.  The two schemes differ only in how
// their Plan selects positions; partition supplies the rest of the
// Planner, the read path, Reset and the metadata codec.
type partition struct {
	scheme.Loop
	n        int // block bits (power of two)
	addrBits int // log2 n
	m        int // maximum partition-vector size (N = 2^m groups)

	fields []int          // selected address bit positions, in selection order
	inv    *bitvec.Vector // inversion bits, one per group (2^m)

	// masks holds the group member masks of the current fields, built
	// on demand as a prefix of maskStore (the persistent allocation,
	// grown as needed and reused across rebuilds).  setFields clears
	// it, so nil means "rebuild before use".
	masks     []*bitvec.Vector
	maskStore []*bitvec.Vector
	invGroups []int
}

// newPartition validates the parameters: n and nGroups must be powers
// of two with nGroups ≤ n.
func newPartition(n, nGroups int, view failcache.View) (partition, error) {
	if n <= 0 || n&(n-1) != 0 {
		return partition{}, fmt.Errorf("safer: block size %d is not a power of two", n)
	}
	if nGroups <= 0 || nGroups&(nGroups-1) != 0 || nGroups > n {
		return partition{}, fmt.Errorf("safer: group count %d invalid for %d-bit block", nGroups, n)
	}
	return partition{
		Loop:     scheme.NewLoop(n, view),
		n:        n,
		addrBits: log2(n),
		m:        log2(nGroups),
		fields:   make([]int, 0, log2(nGroups)),
		inv:      bitvec.New(nGroups),
	}, nil
}

// OverheadBits implements scheme.Scheme: m position fields of
// ⌈log₂ log₂ n⌉ bits each, 2^m inversion bits, and a ⌈log₂(m+1)⌉-bit
// counter of how many fields are in use.  This reproduces the SAFER row
// of the paper's Table 1 exactly; the cached variant costs the same,
// since the fail cache is shared chip-level SRAM.
func (s *partition) OverheadBits() int { return OverheadBits(s.n, 1<<s.m) }

// Fields returns the selected address-bit positions.
func (s *partition) Fields() []int { return append([]int(nil), s.fields...) }

// Reset implements scheme.Resettable: empty partition vector, cleared
// inversion bits, zeroed counters, no tracer and, for an instance a
// factory bound to a fail cache, a fresh view.  The mask store keeps
// its allocation.
func (s *partition) Reset() {
	s.Loop.Reset()
	s.setFields(nil)
	s.inv.Zero()
}

// setFields replaces the partition vector and drops the group masks
// built for the old one.
func (s *partition) setFields(fields []int) {
	s.fields = append(s.fields[:0], fields...)
	s.masks = nil
}

// fieldMask is the set of address bits fields select.  Two cells share
// a group exactly when their addresses agree under it:
// (x^y)&fieldMask(fields) == 0.  SAFER-cache's repartition events
// report it as their From/To.
func fieldMask(fields []int) int {
	mask := 0
	for _, pos := range fields {
		mask |= 1 << uint(pos)
	}
	return mask
}

// group projects a cell address onto the selected positions.
func (s *partition) group(x int) int {
	g := 0
	for i, pos := range s.fields {
		g |= ((x >> uint(pos)) & 1) << uint(i)
	}
	return g
}

// invertWrong is the common tail of Plan: invert the group of every
// wrong fault and no other.
func (s *partition) invertWrong(faults []failcache.Fault, wrong []bool) {
	s.inv.Zero()
	for i, f := range faults {
		if wrong[i] {
			s.inv.Set(s.group(f.Pos), true)
		}
	}
}

// groupMasks returns the member masks of the current partition: mask g
// holds the cells whose address projects onto g.
func (s *partition) groupMasks() []*bitvec.Vector {
	if s.masks != nil {
		return s.masks
	}
	want := 1 << uint(len(s.fields))
	for len(s.maskStore) < want {
		s.maskStore = append(s.maskStore, bitvec.New(s.n))
	}
	s.masks = s.maskStore[:want]
	addr := addrBitMasks(s.n)
	for g, m := range s.masks {
		m.Fill(true)
		for i, pos := range s.fields {
			if g>>uint(i)&1 == 1 {
				m.AndInto(addr[pos])
			} else {
				m.AndNotInto(addr[pos])
			}
		}
	}
	return s.masks
}

// xorInverted flips the cells of every inverted group in v.
func (s *partition) xorInverted(v *bitvec.Vector) {
	masks := s.groupMasks()
	s.invGroups = s.inv.AppendOnes(s.invGroups[:0])
	for _, g := range s.invGroups {
		v.XorInto(masks[g])
	}
}

// Encode implements scheme.Planner.
func (s *partition) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	if !s.inv.Any() {
		return false
	}
	s.xorInverted(phys)
	return true
}

// InvertedGroups implements scheme.Planner.
func (s *partition) InvertedGroups() int { return s.inv.PopCount() }

// Read implements scheme.Scheme.
func (s *partition) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if s.inv.Any() {
		s.xorInverted(dst)
	}
	return dst
}
