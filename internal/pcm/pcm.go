// Package pcm models phase-change-memory data blocks at the level of
// detail the paper's evaluation needs (§3.1):
//
//   - every cell has a finite write endurance drawn from a lifetime
//     distribution; once the budget is exhausted the cell becomes
//     permanently stuck at the value it last stored (stuck-at fault);
//   - a stuck cell's value remains readable but can no longer be changed;
//   - writes are differential: a read precedes every write and only cells
//     whose stored value differs from the datum receive a programming
//     pulse (this is what wears cells and is what the paper approximates
//     as "a cell has a 50 % probability to be excluded" under random
//     data);
//   - a verification read after a write reveals cells whose stored value
//     disagrees with what was written (stuck-at-Wrong cells).
//
// The model is deterministic given the lifetimes assigned at block
// construction, so experiments are reproducible from a seed.
package pcm

import (
	"aegis/internal/xrand"
	"fmt"
	"math/bits"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
)

// Stats accumulates wear and traffic counters for a block.
type Stats struct {
	// RawWrites counts WriteRaw invocations (write requests that reached
	// the block, including a scheme's extra inversion rewrites).
	RawWrites int64
	// BitWrites counts individual programming pulses (cells actually
	// written).  This is the quantity that consumes endurance.
	BitWrites int64
	// NewFaults counts cells that became stuck.
	NewFaults int64
}

// Block is an array of PCM cells protected as one unit by a recovery
// scheme.  Data blocks in the paper are 256 or 512 bits.
type Block struct {
	n      int
	stored *bitvec.Vector // current cell contents (stuck cells hold their stuck value)
	stuck  *bitvec.Vector // stuck-at mask
	stats  Stats

	// Wear counters, vertical: word wi's cells keep their remaining
	// life minus one as k bit planes, planes[wi*k+p] holding bit p of
	// every cell's counter (bit j = cell wi*64+j).  k is fixed at sample
	// time by the longest lifetime in the block, and at least
	// minPlanes.  mortal marks the cells that can still die: finite and
	// not stuck.  Charging a pulse to a word's cells is one borrow-ripple
	// decrement over its planes, and the borrow out of the top plane is
	// exactly the cells whose budget ran out (their counter was 0).
	// Plane bits of cells outside mortal are never read.
	mortal []uint64
	planes []uint64
	k      int

	// Request-scoped wear (the paper's model, §3.1): between
	// BeginRequest and EndRequest, programming happens logically but
	// wear is charged once per cell whose final value differs from its
	// value at request start, and wear-out deaths materialize at
	// EndRequest.  The baseline buffer is lazily allocated once and
	// reused for every request; inRequest tracks whether a request is
	// open (per-pulse wear otherwise).
	baseline  *bitvec.Vector
	inRequest bool
}

// A block's counters are at least minPlanes deep so the wear ripple can
// run its low planes unrolled: the surplus high planes of a short-lived
// cell stay zero, and a borrow leaves them only when the counter
// underflows, which is the cell's death at any depth.  maxPlanes is the
// deepest counter a cell can need: lifetimes clamp to 2^31-1, so
// remaining life minus one fits in 31 bits.
const (
	minPlanes = 8
	maxPlanes = 31
)

// CellFault is one stuck cell: its position within the block and the
// value it is stuck at.  It is the currency of the fail-cache model
// (failcache.Fault is an alias of this type).
type CellFault struct {
	// Pos is the bit offset within the data block.
	Pos int
	// Val is the stuck value.
	Val bool
}

// NewBlock creates an n-bit block with per-cell lifetimes drawn from d
// using rng.  All cells start storing 0.
func NewBlock(n int, d dist.Lifetime, rng *xrand.Rand) *Block {
	if n <= 0 {
		panic(fmt.Sprintf("pcm: block size %d must be positive", n))
	}
	b := &Block{
		n:      n,
		stored: bitvec.New(n),
		stuck:  bitvec.New(n),
		mortal: make([]uint64, (n+63)/64),
		planes: make([]uint64, (n+63)/64*maxPlanes),
	}
	b.sampleLifetimes(d, rng)
	return b
}

// sampleLifetimes draws one lifetime per cell in ascending cell order.
// NewBlock and Reset share it so a reset block consumes the RNG stream
// exactly as a freshly constructed one would.  A negative sample is an
// immortal cell; finite lifetimes clamp to [1, 2^31-1] (every
// dist.Lifetime already returns at least 1).  Each word's counters are
// staged as 64 rows, transposed into planes at the maximum depth, and
// compacted to the block's depth k once the longest lifetime is known.
// Rows of immortal and past-the-end cells keep stale values, and words
// without a mortal cell skip the transpose, since none of it is read.
func (b *Block) sampleLifetimes(d dist.Lifetime, rng *xrand.Rand) {
	var rows [64]uint64
	var all uint64 // OR of every counter; its bit length is k
	staged := b.planes[:len(b.mortal)*maxPlanes]
	for wi := range b.mortal {
		cells := min(64, b.n-wi*64)
		var mortal uint64
		for i := 0; i < cells; i++ {
			v := d.Sample(rng)
			if v < 0 {
				continue // immortal
			}
			v = min(max(v, 1), 1<<31-1)
			rows[i] = uint64(v - 1)
			all |= rows[i]
			mortal |= 1 << uint(i)
		}
		b.mortal[wi] = mortal
		if mortal == 0 {
			continue
		}
		bitvec.Transpose64(&rows)
		copy(staged[wi*maxPlanes:], rows[:maxPlanes])
	}
	k := max(bits.Len64(all), minPlanes)
	for wi := range b.mortal {
		copy(staged[wi*k:wi*k+k], staged[wi*maxPlanes:])
	}
	b.k, b.planes = k, staged[:len(b.mortal)*k]
}

// Reset returns the block to the state NewBlock(b.Size(), d, rng) would
// produce — all cells storing 0, no stuck cells, zeroed counters, and
// fresh lifetimes drawn from d in the same per-cell order as NewBlock —
// without allocating.  Simulation workers reuse one block per goroutine
// across Monte-Carlo trials.  Resetting inside an open request panics.
func (b *Block) Reset(d dist.Lifetime, rng *xrand.Rand) {
	if b.inRequest {
		panic("pcm: Reset inside an open request")
	}
	b.stored.Zero()
	b.stuck.Zero()
	b.stats = Stats{}
	b.sampleLifetimes(d, rng)
}

// NewImmortalBlock creates a block whose cells never wear out; faults can
// only appear through InjectFault.  Used by fault-injection experiments
// (Figure 8) and tests.
func NewImmortalBlock(n int) *Block {
	return NewBlock(n, dist.Immortal{}, nil)
}

// Size returns the number of cells.
func (b *Block) Size() int { return b.n }

// Stats returns a copy of the block's counters.
func (b *Block) Stats() Stats { return b.stats }

// Read copies the block's current contents into dst (allocated when nil)
// and returns it.  Stuck cells read their stuck value.
func (b *Block) Read(dst *bitvec.Vector) *bitvec.Vector {
	if dst == nil {
		dst = bitvec.New(b.n)
	}
	dst.CopyFrom(b.stored)
	return dst
}

// WriteRaw performs one differential write of data into the block: every
// non-stuck cell whose stored value differs from the datum receives a
// programming pulse.  Cells whose endurance budget is exhausted by this
// write become stuck at the newly written value (the pulse that kills the
// cell still succeeds; the fault reveals itself on a later conflicting
// write).  It returns the number of programming pulses issued.
//
// WriteRaw never fails: stuck cells silently keep their stuck value, which
// is exactly the physical behaviour recovery schemes must detect with a
// verification read.
func (b *Block) WriteRaw(data *bitvec.Vector) int {
	if data.Len() != b.n {
		panic(fmt.Sprintf("pcm: write of %d bits into %d-bit block", data.Len(), b.n))
	}
	b.stats.RawWrites++
	pulses := 0
	sw := b.stored.Words()
	kw := b.stuck.Words()
	dw := data.Words()
	deferred := b.inRequest
	for wi := range sw {
		// Cells that differ and are not stuck get written.
		writable := (sw[wi] ^ dw[wi]) &^ kw[wi]
		if writable == 0 {
			continue
		}
		pulses += bits.OnesCount64(writable)
		// Flip the writable cells to the new data.
		sw[wi] ^= writable
		if deferred {
			continue // wear settles at EndRequest
		}
		if m := writable & b.mortal[wi]; m != 0 {
			kw[wi] |= b.wearWord(wi, m)
		}
	}
	b.stats.BitWrites += int64(pulses)
	return pulses
}

// wearWord charges one programming pulse to every cell set in w, which
// the caller has masked with mortal[wi], and returns the mask of cells
// whose budget ran out; the caller ORs it into the stuck word.  This is
// the hot path of every Monte-Carlo figure.  The decrement ripples a
// borrow up the word's planes: a cell's bit flips while the borrow
// reaches it, and the borrow passes on where the bit was 0.  The low
// eight planes (every block has at least eight) run unrolled and
// unconditionally: whether a borrow survives them is close to a coin
// flip the branch predictor cannot learn, so a per-plane exit test
// costs more than the planes it skips.  From plane 8 on, where a borrow
// rarely survives, the ripple stops once none is left.
func (b *Block) wearWord(wi int, w uint64) uint64 {
	k := b.k
	planes := b.planes[wi*k : wi*k+k : wi*k+k]
	q := (*[8]uint64)(planes)
	t := q[0]
	q[0], w = t^w, w&^t
	t = q[1]
	q[1], w = t^w, w&^t
	t = q[2]
	q[2], w = t^w, w&^t
	t = q[3]
	q[3], w = t^w, w&^t
	t = q[4]
	q[4], w = t^w, w&^t
	t = q[5]
	q[5], w = t^w, w&^t
	t = q[6]
	q[6], w = t^w, w&^t
	t = q[7]
	q[7], w = t^w, w&^t
	for p := 8; p < len(planes) && w != 0; p++ {
		t := planes[p]
		planes[p] = t ^ w
		w &^= t
	}
	if w != 0 {
		b.mortal[wi] &^= w
		b.stats.NewFaults += int64(bits.OnesCount64(w))
	}
	return w
}

// BeginRequest switches the block into request-scoped wear until the
// matching EndRequest: programming between the two is logically applied
// immediately, but endurance is charged once per cell whose value at
// EndRequest differs from its value now, and wear-out deaths materialize
// at EndRequest.  This is the paper's wear model ("a cell has a 50 %
// probability to be excluded in serving a write request", §3.1): a
// scheme's internal verify-and-rewrite iterations count as part of one
// write request.  Nested BeginRequest calls panic.
func (b *Block) BeginRequest() {
	if b.inRequest {
		panic("pcm: nested BeginRequest")
	}
	b.inRequest = true
	if b.baseline == nil {
		b.baseline = b.stored.Clone()
	} else {
		b.baseline.CopyFrom(b.stored)
	}
}

// EndRequest settles a request-scoped write: every non-stuck cell whose
// stored value changed since BeginRequest is charged one pulse, cells
// whose budget ran out become stuck at their current value, and the
// block returns to immediate wear.  It returns the number of pulses
// charged.
func (b *Block) EndRequest() int {
	if !b.inRequest {
		panic("pcm: EndRequest without BeginRequest")
	}
	sw := b.stored.Words()
	kw := b.stuck.Words()
	bw := b.baseline.Words()
	pulses := 0
	for wi := range sw {
		changed := (sw[wi] ^ bw[wi]) &^ kw[wi]
		if changed == 0 {
			continue
		}
		pulses += bits.OnesCount64(changed)
		if m := changed & b.mortal[wi]; m != 0 {
			kw[wi] |= b.wearWord(wi, m)
		}
	}
	b.inRequest = false
	return pulses
}

// InRequest reports whether a request-scoped write is open.
func (b *Block) InRequest() bool { return b.inRequest }

// Verify compares the block contents against intended and returns the
// mask of mismatching cells (allocating when dst is nil).  After a
// WriteRaw(intended), every mismatch is by construction a stuck-at-Wrong
// cell for that data.
func (b *Block) Verify(intended *bitvec.Vector, dst *bitvec.Vector) *bitvec.Vector {
	if dst == nil {
		dst = bitvec.New(b.n)
	}
	dst.Xor(b.stored, intended)
	return dst
}

// IsStuck reports whether cell i has a stuck-at fault.
func (b *Block) IsStuck(i int) bool { return b.stuck.Get(i) }

// StuckValue returns the stuck value of cell i; it panics if the cell is
// healthy.  Only fault-aware schemes (with a fail cache) may call this.
func (b *Block) StuckValue(i int) bool {
	if !b.stuck.Get(i) {
		panic(fmt.Sprintf("pcm: StuckValue of healthy cell %d", i))
	}
	return b.stored.Get(i)
}

// FaultCount returns the number of stuck cells.
func (b *Block) FaultCount() int { return b.stuck.PopCount() }

// Faults returns the positions of all stuck cells in ascending order.
func (b *Block) Faults() []int { return b.stuck.OnesIndices() }

// AppendFaults appends every stuck cell (position and stuck value) to
// buf in ascending position order and returns the extended slice.  It
// is the allocation-free form of Faults+StuckValue for hot paths:
// callers pass buf[:0] of a reused scratch slice.
func (b *Block) AppendFaults(buf []CellFault) []CellFault {
	sw := b.stored.Words()
	for wi, w := range b.stuck.Words() {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			w &= w - 1
			buf = append(buf, CellFault{
				Pos: wi*64 + bit,
				Val: sw[wi]&(1<<uint(bit)) != 0,
			})
		}
	}
	return buf
}

// StuckMask returns a copy of the stuck-cell mask.
func (b *Block) StuckMask(dst *bitvec.Vector) *bitvec.Vector {
	if dst == nil {
		dst = bitvec.New(b.n)
	}
	dst.CopyFrom(b.stuck)
	return dst
}

// InjectFault forces cell i to be stuck at value v, regardless of its
// remaining endurance.  Used by fault-injection experiments.
func (b *Block) InjectFault(i int, v bool) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("pcm: InjectFault index %d out of range", i))
	}
	if !b.stuck.Get(i) {
		b.stats.NewFaults++
	}
	b.stuck.Set(i, true)
	b.stored.Set(i, v)
	b.mortal[i/64] &^= 1 << uint(i%64)
}

// RemainingLife returns cell i's remaining endurance budget: 0 once
// stuck, -1 when the cell is immortal (the counter plus one otherwise).  Exposed for tests and wear
// analyses.
func (b *Block) RemainingLife(i int) int32 {
	wi, bit := i/64, uint(i%64)
	switch {
	case b.stuck.Get(i):
		return 0
	case b.mortal[wi]>>bit&1 == 0:
		return -1
	}
	var c int32
	for p, t := range b.planes[wi*b.k : wi*b.k+b.k] {
		c |= int32(t>>bit&1) << uint(p)
	}
	return c + 1
}
