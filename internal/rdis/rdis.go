// Package rdis implements RDIS — the Recursively Defined Invertible Set
// scheme (Melhem, Maddah & Cho, DSN 2012) — the second
// partition-and-inversion baseline of the Aegis paper's evaluation.
//
// The data block is viewed as a rows×cols matrix.  Writing data D with a
// set of known stuck cells proceeds by constructing an "invertible set"
// S whose cells are stored inverted:
//
//	level 1: the rows R₁ and columns C₁ containing cells stuck at the
//	         wrong value for D define S₁ = R₁×C₁.  Inverting S₁ fixes
//	         those cells but breaks previously-right stuck cells inside
//	         S₁;
//	level 2: within S₁, the sub-rows/columns holding those newly wrong
//	         cells define S₂ ⊆ S₁, inverted back;  and so on.
//
// The final inversion parity of a cell is the parity of the number of
// S-levels containing it.  RDIS-k stops after k levels; if any stuck
// cell still disagrees the block is dead.  The Aegis paper follows the
// RDIS paper in using k = 3 and always grants RDIS a perfect fail cache
// (the scheme cannot run without stuck-value knowledge).
//
// Bookkeeping: the row/column marker vectors.  We charge
// 2·(rows+cols)+1 bits, which reproduces the overheads the Aegis paper
// quotes (25 % of a 256-bit block = 64 bits at 16×16, 19 % of a 512-bit
// block ≈ 97 bits at 16×32); see DESIGN.md for the accounting note.
package rdis

import (
	"fmt"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// RDIS is the per-block state of RDIS-k.  The embedded scheme.Loop
// drives the write path; RDIS supplies the invertible-set decision.
type RDIS struct {
	scheme.Loop
	rows, cols, depth int

	parity *bitvec.Vector // inversion mask of the last planned write

	// Row/column membership scratch for Plan's level recursion.
	prevRow, curRow []bool
	prevCol, curCol []bool
}

var (
	_ scheme.Scheme  = (*RDIS)(nil)
	_ scheme.Planner = (*RDIS)(nil)
)

// New returns a fresh RDIS-depth instance over a rows×cols matrix view of
// an n-bit block (rows·cols must equal n).
func New(n, rows, cols, depth int, view failcache.View) (*RDIS, error) {
	if rows <= 0 || cols <= 0 || rows*cols != n {
		return nil, fmt.Errorf("rdis: %d×%d matrix does not tile a %d-bit block", rows, cols, n)
	}
	if depth < 1 {
		return nil, fmt.Errorf("rdis: depth %d must be ≥ 1", depth)
	}
	return &RDIS{
		Loop:    scheme.NewLoop(n, view),
		rows:    rows,
		cols:    cols,
		depth:   depth,
		parity:  bitvec.New(n),
		prevRow: make([]bool, rows),
		curRow:  make([]bool, rows),
		prevCol: make([]bool, cols),
		curCol:  make([]bool, cols),
	}, nil
}

// Name implements scheme.Scheme.
func (r *RDIS) Name() string { return fmt.Sprintf("RDIS-%d", r.depth) }

// OverheadBits implements scheme.Scheme.
func (r *RDIS) OverheadBits() int { return OverheadBits(r.rows, r.cols) }

// OverheadBits is the RDIS bookkeeping cost for a rows×cols matrix.
func OverheadBits(rows, cols int) int { return 2*(rows+cols) + 1 }

// Reset implements scheme.Resettable.  An instance a factory built also
// acquires a fresh fail-cache view, so a finite cache sees a new block
// ID exactly as it would for a freshly constructed instance.
func (r *RDIS) Reset() {
	r.Loop.Reset()
	r.parity.Zero()
}

// cellOf maps matrix coordinates to the bit offset (row-major).
func (r *RDIS) cellOf(row, col int) int { return row*r.cols + col }

// Plan implements scheme.Planner: it builds the invertible-set parity
// mask over the known faults, and fails when the recursion depth is
// exhausted with wrong cells remaining.
func (r *RDIS) Plan(faults []failcache.Fault, wrong []bool) string {
	parity := r.parity
	parity.Zero()
	if len(faults) == 0 {
		return ""
	}
	// The level-i set is a product Rᵢ×Cᵢ with Rᵢ ⊆ Rᵢ₋₁, Cᵢ ⊆ Cᵢ₋₁, so
	// membership of the previous level reduces to two boolean slices
	// (instance-owned scratch, reused across writes).
	prevRow, prevCol := r.prevRow, r.prevCol
	curRow, curCol := r.curRow, r.curCol
	for i := range prevRow {
		prevRow[i] = true
	}
	for i := range prevCol {
		prevCol[i] = true
	}

	for level := 1; level <= r.depth; level++ {
		// A fault is wrong at this level if it is inside the previous
		// set and its stuck value disagrees with the data under the
		// current inversion parity (odd levels: parity 0 → wrong when
		// stuck ≠ data; even levels: parity 1 → wrong when stuck = data).
		wantDiffer := level%2 == 1
		for i := range curRow {
			curRow[i] = false
		}
		for i := range curCol {
			curCol[i] = false
		}
		any := false
		for i, f := range faults {
			row := f.Pos / r.cols
			col := f.Pos % r.cols
			if !prevRow[row] || !prevCol[col] {
				continue
			}
			if wrong[i] == wantDiffer {
				curRow[row] = true
				curCol[col] = true
				any = true
			}
		}
		if !any {
			return "" // all stuck cells agree; parity is final
		}
		r.flipSet(parity, curRow, curCol)
		copy(prevRow, curRow)
		copy(prevCol, curCol)
	}
	// Depth exhausted: succeed only if every fault now agrees.
	for i, f := range faults {
		if wrong[i] != parity.Get(f.Pos) {
			return scheme.CauseDepthExhausted
		}
	}
	return ""
}

// flipSet flips the parity of every cell in curRow×curCol.  Rows are
// contiguous in the row-major layout, so when a row fits in a word the
// selected columns collapse to one bit pattern spliced into the parity
// words per selected row; wider rows fall back to per-cell flips.
func (r *RDIS) flipSet(parity *bitvec.Vector, curRow, curCol []bool) {
	if r.cols > 64 {
		for row := 0; row < r.rows; row++ {
			if !curRow[row] {
				continue
			}
			for col := 0; col < r.cols; col++ {
				if curCol[col] {
					parity.Flip(r.cellOf(row, col))
				}
			}
		}
		return
	}
	var pattern uint64
	for col, on := range curCol {
		if on {
			pattern |= 1 << uint(col)
		}
	}
	words := parity.Words()
	for row := 0; row < r.rows; row++ {
		if !curRow[row] {
			continue
		}
		off := row * r.cols
		wi, sh := off/64, uint(off%64)
		words[wi] ^= pattern << sh
		if int(sh)+r.cols > 64 {
			words[wi+1] ^= pattern >> (64 - sh)
		}
	}
}

// Write implements scheme.Scheme.
func (r *RDIS) Write(blk *pcm.Block, data *bitvec.Vector) error { return r.Run(r, blk, data) }

// Encode implements scheme.Planner.
func (r *RDIS) Encode(data, phys *bitvec.Vector) bool {
	phys.Xor(data, r.parity)
	return r.parity.Any()
}

// InvertedGroups implements scheme.Planner.  RDIS has no group notion;
// it reports inverted cells.
func (r *RDIS) InvertedGroups() int { return r.parity.PopCount() }

// Read implements scheme.Scheme.
func (r *RDIS) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	dst.Xor(dst, r.parity)
	return dst
}

// Geometry returns the default near-square power-of-two matrix shape for
// an n-bit block: 256 → 16×16, 512 → 16×32.
func Geometry(n int) (rows, cols int) {
	rows = 1
	for rows*rows*2 <= n {
		rows <<= 1
	}
	return rows, n / rows
}

// Factory builds RDIS-depth instances.
type Factory struct {
	N, Rows, Cols, Depth int
	Cache                failcache.Provider

	nextID atomic.Uint64
}

// NewFactory returns an RDIS factory using the default geometry.
func NewFactory(n, depth int, cache failcache.Provider) (*Factory, error) {
	rows, cols := Geometry(n)
	if _, err := New(n, rows, cols, depth, nil); err != nil {
		return nil, err
	}
	return &Factory{N: n, Rows: rows, Cols: cols, Depth: depth, Cache: cache}, nil
}

// MustFactory is NewFactory that panics on error.
func MustFactory(n, depth int, cache failcache.Provider) *Factory {
	f, err := NewFactory(n, depth, cache)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (f *Factory) Name() string { return fmt.Sprintf("RDIS-%d", f.Depth) }

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *Factory) OverheadBits() int { return OverheadBits(f.Rows, f.Cols) }

// New implements scheme.Factory.
func (f *Factory) New() scheme.Scheme {
	r, err := New(f.N, f.Rows, f.Cols, f.Depth, nil)
	if err != nil {
		panic(err)
	}
	r.BindCache(f.Cache, &f.nextID)
	return r
}

var _ scheme.Factory = (*Factory)(nil)
