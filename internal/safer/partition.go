package safer

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// lowPattern[p] marks the cells of a 64-bit word whose in-word address
// has bit p set.  Address bits 6 and above select whole words, so any
// set of cells a partition names is, word by word, an intersection of
// these patterns (or their complements) gated on the word index.
var lowPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
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

	// flip holds the cells of every inverted group: the vector Encode
	// and Read XOR.  flipOK reports that it matches fields and inv;
	// whatever changes either clears it, and the next use rebuilds.
	flip      *bitvec.Vector
	flipOK    bool
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
		flip:     bitvec.New(n),
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
// factory bound to a fail cache, a fresh view.  The inverted-cell mask
// keeps its allocation.
func (s *partition) Reset() {
	s.Loop.Reset()
	s.setFields(nil)
	s.inv.Zero()
}

// setFields replaces the partition vector.
func (s *partition) setFields(fields []int) {
	s.fields = append(s.fields[:0], fields...)
	s.flipOK = false
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
	s.flipOK = false
}

// inverted returns the cells of every inverted group, rebuilding the
// mask word by word after the fields or the inversion bits changed.
// Group g's cells in word w are the in-word pattern of its low fields,
// present when w's index agrees with g on the high fields; a rebuild
// costs O(inverted groups × (m + words)).
func (s *partition) inverted() *bitvec.Vector {
	if s.flipOK {
		return s.flip
	}
	words := s.flip.Words()
	clear(words)
	s.invGroups = s.inv.AppendOnes(s.invGroups[:0])
	for _, g := range s.invGroups {
		in, hiMask, hiWant := ^uint64(0), 0, 0
		for i, pos := range s.fields {
			bit := g >> uint(i) & 1
			switch {
			case pos >= 6:
				hiMask |= 1 << uint(pos-6)
				hiWant |= bit << uint(pos-6)
			case bit == 1:
				in &= lowPattern[pos]
			default:
				in &^= lowPattern[pos]
			}
		}
		for w := range words {
			if w&hiMask == hiWant {
				words[w] |= in
			}
		}
	}
	if s.n < 64 {
		words[0] &= 1<<uint(s.n) - 1
	}
	s.flipOK = true
	return s.flip
}

// Encode implements scheme.Planner.
func (s *partition) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	if !s.inv.Any() {
		return false
	}
	phys.XorInto(s.inverted())
	return true
}

// InvertedGroups implements scheme.Planner.
func (s *partition) InvertedGroups() int { return s.inv.PopCount() }

// Read implements scheme.Scheme.
func (s *partition) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	if s.inv.Any() {
		dst.XorInto(s.inverted())
	}
	return dst
}
