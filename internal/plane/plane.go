// Package plane implements the Cartesian-plane partition scheme at the
// heart of Aegis (Fan et al., MICRO 2013, §2.1).
//
// An n-bit data block is laid out on an A×B rectangle with A = ⌈n/B⌉,
// A ≤ B and B prime.  Bit x of the block maps to the point
// (a, b) = (x / B, x mod B).  A partition configuration is a slope
// k ∈ [0, B); under slope k the point (a, b) belongs to the group whose
// anchor is y = (b − a·k) mod B.  Every configuration therefore has
// exactly B groups of at most A bits each.
//
// The two theorems the scheme rests on:
//
//   - Theorem 1: under any slope, every point is in exactly one group.
//   - Theorem 2: two distinct points that share a group under slope k are
//     in different groups under every slope k′ ≠ k.  (Two points in the
//     same column a never share a group at all.)
//
// Package plane also provides the lookup tables that the paper realizes as
// ROMs (Figures 3 and 4): bit→group per slope, group→member-mask per
// slope, and the bit-pair→colliding-slope table used by Aegis-rw (§2.4).
//
// Note: the paper prints the sizing constraint as "A(B−1) < n ≤ AB", but
// every configuration the paper actually uses (9×61, 17×31, 8×71 for
// 512-bit blocks, 12×23 for 256-bit) satisfies (A−1)·B < n ≤ A·B instead,
// i.e. A = ⌈n/B⌉.  We implement the latter.
package plane

import (
	"fmt"
	"math/bits"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/prime"
)

// Layout describes an A×B Aegis partition scheme for an n-bit block.
type Layout struct {
	// N is the number of bits in the protected data block.
	N int
	// A is the rectangle width, ⌈N/B⌉.  Points have 0 ≤ a < A.
	A int
	// B is the rectangle height, a prime.  Points have 0 ≤ b < B.
	// B is also the number of slopes (partition configurations) and the
	// number of groups per configuration.
	B int

	// groupMasks[k][y] is the member mask of group y under slope k
	// (the "49×32-bit ROM" of Figure 4, generalized).  Precomputed at
	// construction so a Layout is safe for concurrent readers.
	groupMasks [][]*bitvec.Vector
}

// layoutCache shares constructed layouts across calls: the ROM tables
// are immutable after construction (the hardware analogy is literal —
// they are mask ROMs), so every factory protecting the same (n, B)
// configuration can use one copy.  Before this cache each experiment
// run rebuilt B² masks per roster entry, which dominated one-time
// allocation in steady-state heap profiles.
//
// The cache holds at most layoutCacheBudget bytes of masks by the
// MaskTableBytes estimate: a layout past the budget is built and
// returned but not stored, so a daemon fed many distinct (n, B) keeps a
// bounded heap.  Factories hold their layout, so an uncached one costs
// one rebuild per factory, not per trial.  Every layout the figure
// rosters use fits in about 1.2 MB of the budget.
var layoutCache = struct {
	sync.Mutex
	m     map[layoutKey]*Layout
	bytes int64
}{m: make(map[layoutKey]*Layout)}

// layoutCacheBudget bounds layoutCache.bytes: four of the largest
// tables the scheme-spec grammar accepts.
const layoutCacheBudget = 32 << 20

type layoutKey struct{ n, b int }

// MaskTableBytes estimates the heap the group-mask table of an n-bit
// layout with parameter B takes: B slopes × B groups, each mask ⌈n/64⌉
// words plus about five words of vector header and pointer.
func MaskTableBytes(n, b int) int64 {
	return int64(b) * int64(b) * 8 * int64((n+63)/64+5)
}

// NewLayout returns the A×B layout protecting an n-bit block, with
// A = ⌈n/B⌉.  It returns an error unless B is prime, A ≤ B, and the
// rectangle is large enough ((A−1)·B < n ≤ A·B holds by construction).
// Layouts are immutable and cached up to a fixed byte budget: repeated
// calls with the same (n, B) return the same shared instance while the
// cache has room for it.
func NewLayout(n, b int) (*Layout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("plane: block size %d must be positive", n)
	}
	if !prime.IsPrime(b) {
		return nil, fmt.Errorf("plane: B = %d is not prime", b)
	}
	a := (n + b - 1) / b
	if a > b {
		return nil, fmt.Errorf("plane: A = ⌈%d/%d⌉ = %d exceeds B = %d (Theorem 2 requires A ≤ B)", n, b, a, b)
	}
	key := layoutKey{n, b}
	layoutCache.Lock()
	cached := layoutCache.m[key]
	layoutCache.Unlock()
	if cached != nil {
		return cached, nil
	}
	l := &Layout{N: n, A: a, B: b}
	l.groupMasks = make([][]*bitvec.Vector, b)
	for k := 0; k < b; k++ {
		l.groupMasks[k] = make([]*bitvec.Vector, b)
		for y := 0; y < b; y++ {
			m := bitvec.New(n)
			for _, x := range l.GroupMembers(y, k) {
				m.Set(x, true)
			}
			l.groupMasks[k][y] = m
		}
	}
	// A racing constructor may have stored first; keep whichever won so
	// all callers share one instance.
	layoutCache.Lock()
	defer layoutCache.Unlock()
	if cached := layoutCache.m[key]; cached != nil {
		return cached, nil
	}
	if size := MaskTableBytes(n, b); layoutCache.bytes+size <= layoutCacheBudget {
		layoutCache.m[key] = l
		layoutCache.bytes += size
	}
	return l, nil
}

// MustLayout is NewLayout that panics on error, for configurations that
// are known valid at compile time (e.g. the paper's 9×61 for 512 bits).
func MustLayout(n, b int) *Layout {
	l, err := NewLayout(n, b)
	if err != nil {
		panic(err)
	}
	return l
}

// ChooseB returns the smallest prime B that provides at least minSlopes
// partition configurations for an n-bit block while keeping A = ⌈n/B⌉ ≤ B.
// This is how a scheme designer picks B for a required hard FTC.
func ChooseB(n, minSlopes int) int {
	b := prime.Next(max(2, minSlopes))
	for {
		if (n+b-1)/b <= b {
			return b
		}
		b = prime.Next(b + 1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// String names the layout in the paper's A×B notation.
func (l *Layout) String() string { return fmt.Sprintf("%dx%d", l.A, l.B) }

// Slopes returns the number of partition configurations (= B).
func (l *Layout) Slopes() int { return l.B }

// Groups returns the number of groups per configuration (= B).
func (l *Layout) Groups() int { return l.B }

// Point maps bit offset x to its plane coordinates (a, b).
func (l *Layout) Point(x int) (a, b int) {
	if x < 0 || x >= l.N {
		panic(fmt.Sprintf("plane: offset %d out of range [0,%d)", x, l.N))
	}
	return x / l.B, x % l.B
}

// Offset maps plane coordinates back to a bit offset.  ok is false for
// points of the rectangle that are not mapped to any bit (the rectangle
// can be up to B−1 positions larger than the block).
func (l *Layout) Offset(a, b int) (x int, ok bool) {
	if a < 0 || a >= l.A || b < 0 || b >= l.B {
		return 0, false
	}
	x = a*l.B + b
	if x >= l.N {
		return 0, false
	}
	return x, true
}

// Group returns the group (anchor y) of bit x under slope k:
// y = (b − a·k) mod B.
func (l *Layout) Group(x, k int) int {
	a, b := l.Point(x)
	l.checkSlope(k)
	return prime.Mod(b-a*k, l.B)
}

func (l *Layout) checkSlope(k int) {
	if k < 0 || k >= l.B {
		panic(fmt.Sprintf("plane: slope %d out of range [0,%d)", k, l.B))
	}
}

// GroupMembers returns the bit offsets belonging to group y under slope k,
// in ascending a order.  At most A offsets are returned; fewer when some
// of the group's rectangle points are unmapped.
func (l *Layout) GroupMembers(y, k int) []int {
	l.checkSlope(k)
	if y < 0 || y >= l.B {
		panic(fmt.Sprintf("plane: group %d out of range [0,%d)", y, l.B))
	}
	out := make([]int, 0, l.A)
	for a := 0; a < l.A; a++ {
		b := prime.Mod(a*k+y, l.B)
		if x, ok := l.Offset(a, b); ok {
			out = append(out, x)
		}
	}
	return out
}

// GroupMask returns a bit mask over the block with the members of group y
// under slope k set.  The mask is shared and precomputed; callers must not
// modify it.  This is the software equivalent of the member-bit ROM of
// Figure 4.
func (l *Layout) GroupMask(y, k int) *bitvec.Vector {
	l.checkSlope(k)
	if y < 0 || y >= l.B {
		panic(fmt.Sprintf("plane: group %d out of range [0,%d)", y, l.B))
	}
	return l.groupMasks[k][y]
}

// XorGroups folds the member masks of every group whose bit is set in
// groups (a B-bit vector) into dst under slope k: dst ^= ⊕ mask(y, k).
// This is the word-level form of the per-group GroupMask loop the
// schemes' write paths used to run — one call applies a whole inversion
// vector without allocating or materializing index slices.
func (l *Layout) XorGroups(dst *bitvec.Vector, groups *bitvec.Vector, k int) {
	l.checkSlope(k)
	if groups.Len() != l.B {
		panic(fmt.Sprintf("plane: group vector of %d bits, want B = %d", groups.Len(), l.B))
	}
	masks := l.groupMasks[k]
	for wi, w := range groups.Words() {
		for w != 0 {
			y := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			dst.XorInto(masks[y])
		}
	}
}

// CollidingSlope returns the unique slope under which distinct bits x1 and
// x2 share a group, and ok=true.  If the bits lie in the same column of
// the rectangle (a1 == a2) they never share a group and ok=false.
// This is the software equivalent of the n×n×⌈log₂B⌉ ROM of §2.4.
func (l *Layout) CollidingSlope(x1, x2 int) (k int, ok bool) {
	if x1 == x2 {
		panic("plane: CollidingSlope of a bit with itself")
	}
	a1, b1 := l.Point(x1)
	a2, b2 := l.Point(x2)
	if a1 == a2 {
		return 0, false
	}
	// Same group under k ⇔ (b1 − a1·k) ≡ (b2 − a2·k) (mod B)
	//                    ⇔ k ≡ (b1 − b2)·(a1 − a2)⁻¹ (mod B).
	inv := prime.ModInverse(a1-a2, l.B)
	return prime.Mod((b1-b2)*inv, l.B), true
}

// SameGroup reports whether bits x1 and x2 share a group under slope k.
func (l *Layout) SameGroup(x1, x2, k int) bool {
	return l.Group(x1, k) == l.Group(x2, k)
}

// CollisionFree reports whether every pair of the given (distinct) bit
// offsets lies in a different group under slope k.
func (l *Layout) CollisionFree(offsets []int, k int) bool {
	if len(offsets) > l.B {
		return false // pigeonhole: more faults than groups
	}
	var buf [64]int
	groups := buf[:0]
	if len(offsets) > len(buf) {
		groups = make([]int, 0, len(offsets))
	}
	for _, x := range offsets {
		g := l.Group(x, k)
		for _, seen := range groups {
			if seen == g {
				return false
			}
		}
		groups = append(groups, g)
	}
	return true
}

// FindCollisionFree searches the slopes starting at startK (wrapping
// around) for a configuration in which all offsets are in distinct
// groups.  It returns the slope and true, or 0 and false if no
// configuration separates them.  Aegis's re-partition is exactly this
// search performed one increment at a time.
func (l *Layout) FindCollisionFree(offsets []int, startK int) (int, bool) {
	for i := 0; i < l.B; i++ {
		k := (startK + i) % l.B
		if l.CollisionFree(offsets, k) {
			return k, true
		}
	}
	return 0, false
}

// HardFTC returns the guaranteed fault-tolerance capability of the layout:
// the largest f such that C(f,2)+1 ≤ B (§2.3).  With that many faults at
// most C(f,2) slopes can contain a collision, so a collision-free slope
// always exists.
func (l *Layout) HardFTC() int {
	f := 1
	for (f+1)*f/2+1 <= l.B {
		f++
	}
	return f
}

// HardFTCRW returns the guaranteed fault-tolerance capability of the
// layout when stuck-at-Right/stuck-at-Wrong fault types are known
// (Aegis-rw, §2.4): the largest f such that ⌊f/2⌋·⌈f/2⌉+1 ≤ B, since only
// W–R pairs must be separated and the worst split of f faults yields
// ⌊f/2⌋·⌈f/2⌉ pairs.
func (l *Layout) HardFTCRW() int {
	f := 1
	for (f+1)/2*((f+2)/2)+1 <= l.B {
		f++
	}
	return f
}

// OverheadBits returns the per-block bookkeeping cost of the layout as
// used by the base Aegis scheme: a ⌈log₂B⌉-bit slope counter plus a B-bit
// inversion vector (§2.3).
func (l *Layout) OverheadBits() int {
	return ceilLog2(l.B) + l.B
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// CeilLog2 returns ⌈log₂ n⌉ (0 for n ≤ 1).  Exported for the cost model.
func CeilLog2(n int) int { return ceilLog2(n) }
