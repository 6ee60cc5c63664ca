package pcm

import (
	"aegis/internal/xrand"
	"fmt"
	"math/bits"

	"aegis/internal/dist"
)

// LaneBlock is the bit-sliced counterpart of Block: up to 64 independent
// Monte-Carlo trials ("lanes") of the same block configuration advance
// in lockstep, with the state transposed so that bit l of every state
// word belongs to lane l.  Where Block keeps one word per 64 cells,
// LaneBlock keeps one word per cell position j whose 64 bits are the 64
// lanes' values of that cell.  Broadcast operations (differential write,
// verify) then cost one word op per cell position for all lanes at once
// instead of one word op per 64 cells per trial.
//
// Every lane reproduces exactly the scalar trial with the same global
// trial index: lifetimes are sampled per lane from that trial's RNG in
// the same ascending-cell order as NewBlock, wear is charged by the same
// request-scoped rule, and cells die on exactly the same write request
// (see the wear-guard invariant below).  The sliced simulation paths in
// internal/sim are pinned byte-identical to the scalar ones by
// differential tests.
//
// LaneBlock only models request-scoped wear (BeginRequest/EndRequest);
// the per-pulse ablation (Config.PulseWear) stays on the scalar path.
type LaneBlock struct {
	n     int
	lanes int

	stored []uint64 // [n] bit l = lane l's value of cell j
	stuck  []uint64 // [n] bit l = cell j stuck in lane l
	base   []uint64 // [n] snapshot of stored at BeginRequest; stored^base = net request change

	// anyStuck is a bitset over cell positions (n/64 words, bit j%64 of
	// word j/64) marking positions where at least one lane is stuck.
	// Verification mismatches can only occur at stuck cells, so verify
	// scans iterate this index instead of all n positions.
	anyStuck []uint64

	life []int32 // [n*64] life[j*64+l] = lane l's remaining pulses for cell j; <0 = immortal

	// Batched wear.  Pulses accumulate in byte-lane counters and fold
	// into life lazily: pend[j*8+k] accumulates spread8(m>>8k) per
	// settlement, so its byte i (from the top) is the pending (not yet
	// settled) pulse count of cell j in lane 8k+i.
	//
	// A position's lanes are partitioned by remaining life.  Lanes at
	// dangerLife or below enter danger[j]: their cell could die soon, so
	// every settlement that pulses them checks their exact remaining
	// life (life minus their pending byte) inline and registers the
	// death the moment it lands — bit-identical timing without settling
	// the other 63 lanes.  guard[j] covers the healthy rest: it starts
	// at min(255, minimum remaining life over live non-danger lanes) —
	// at least dangerLife+1 by construction — and decrements per
	// settlement, so while it stays above 1 no healthy lane's cell can
	// die and no byte lane can overflow.  At 1 the position is flushed,
	// that settlement is processed exactly, and the partition re-arms.
	// A low-life lane would otherwise pin guard to 1 and force a full
	// 64-lane exact settle on every request until it dies.
	pend   []uint64 // [n*8]
	guard  []int32  // [n]
	danger []uint64 // [n] lanes whose cell is within dangerLife pulses of death

	retired   uint64 // lanes masked out of wear guards (their trials ended)
	inRequest bool

	rawWrites [64]int64
	newFaults [64]int64
	bitWrites laneCounter
}

// dangerLife is the exact-tracking threshold: lanes whose cell has this
// many pulses or fewer left are pulled out of the guard min and death-
// checked inline per request instead.  It floors every re-armed guard at
// dangerLife+1, bounding full exact settles to one per dangerLife+
// settlements per position.  Larger values settle less often but
// death-check more lanes per request.
const dangerLife = 16

// spread8 distributes the low 8 bits of c across the byte lanes of a
// uint64: lane k holds bit 7-k of c.  The multiply places bit j of c at
// bit 63-8j (the partial products 2^(9i+j) never collide for distinct
// j, so no carries occur), the shift and mask isolate the lane LSBs.
func spread8(c uint64) uint64 {
	return (c & 0xff) * 0x8040201008040201 >> 7 & 0x0101010101010101
}

// LaneErr is one verification mismatch: a cell position and the mask of
// lanes that read back wrong there.  VerifyErrors appends them in
// ascending position order, which is the fault-discovery order the
// scalar schemes observe.
type LaneErr struct {
	Pos   int
	Lanes uint64
}

// laneCounter counts events per lane with carry-save bit planes:
// plane p bit l holds bit p of lane l's count modulo 2^planes.  Event
// masks are pre-summed in registers by the caller (WriteRaw's half-adder
// cascade) and arrive as already-weighted partial sums via drain; counts
// fold into the per-lane totals before any plane could overflow.  adds
// tracks the number of absorbed event masks (each contributes at most 1
// per lane), which bounds every lane's in-plane count.
type laneCounter struct {
	planes [20]uint64
	adds   int
	total  [64]int64
}

// addWeighted ripples a weight-2^p partial sum into the bit planes.
func (c *laneCounter) addWeighted(m uint64, p int) {
	for ; m != 0; p++ {
		t := c.planes[p]
		c.planes[p] = t ^ m
		m = t & m
	}
}

// drain folds a register half-adder cascade (partial per-lane sums of
// weight 1..32) built from `absorbed` event masks into the bit planes.
func (c *laneCounter) drain(s1, s2, s4, s8, s16, s32 uint64, absorbed int) {
	if absorbed == 0 {
		return
	}
	c.addWeighted(s1, 0)
	c.addWeighted(s2, 1)
	c.addWeighted(s4, 2)
	c.addWeighted(s8, 3)
	c.addWeighted(s16, 4)
	c.addWeighted(s32, 5)
	c.adds += absorbed
}

func (c *laneCounter) flush() {
	for p := range c.planes {
		w := c.planes[p]
		c.planes[p] = 0
		for w != 0 {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			c.total[l] += int64(1) << uint(p)
		}
	}
	c.adds = 0
}

func (c *laneCounter) reset() {
	c.planes = [20]uint64{}
	c.total = [64]int64{}
	c.adds = 0
}

// NewLaneBlock allocates a sliced block for n-bit data blocks.  The
// block starts with zero lanes; Reset arms it for a lane group.
func NewLaneBlock(n int) *LaneBlock {
	if n <= 0 {
		panic(fmt.Sprintf("pcm: lane block size %d must be positive", n))
	}
	return &LaneBlock{
		n:        n,
		stored:   make([]uint64, n),
		stuck:    make([]uint64, n),
		base:     make([]uint64, n),
		anyStuck: make([]uint64, (n+63)/64),
		life:     make([]int32, n*64),
		pend:     make([]uint64, n*8),
		guard:    make([]int32, n),
		danger:   make([]uint64, n),
		retired:  ^uint64(0),
	}
}

// Size returns the number of cells per lane.
func (b *LaneBlock) Size() int { return b.n }

// Lanes returns the number of lanes armed by the last Reset.
func (b *LaneBlock) Lanes() int { return b.lanes }

// Reset arms the block for len(rngs) lockstep trials: every lane starts
// storing all zeros with no stuck cells and fresh lifetimes drawn from d
// using that lane's RNG, consuming it in the same ascending-cell order
// as pcm.NewBlock so lane l reproduces exactly the scalar trial its RNG
// belongs to.  The RNGs are caller-owned state passed as a value slice
// (the sliced engine keeps all 64 inline in its pooled arena); Reset
// only advances them.  Unused lanes are retired and immortal.
// Resetting inside an open request panics.
func (b *LaneBlock) Reset(d dist.Lifetime, rngs []xrand.Rand) {
	if b.inRequest {
		panic("pcm: LaneBlock.Reset inside an open request")
	}
	if len(rngs) == 0 || len(rngs) > 64 {
		panic(fmt.Sprintf("pcm: lane count %d out of range [1,64]", len(rngs)))
	}
	b.lanes = len(rngs)
	if b.lanes == 64 {
		b.retired = 0
	} else {
		b.retired = ^uint64(0) << uint(b.lanes)
	}
	for i := range b.stored {
		b.stored[i] = 0
		b.stuck[i] = 0
	}
	for i := range b.anyStuck {
		b.anyStuck[i] = 0
	}
	for i := range b.pend {
		b.pend[i] = 0
	}
	for l := range rngs {
		rng := &rngs[l]
		life := b.life[l:]
		for j := 0; j < b.n; j++ {
			v := d.Sample(rng)
			switch {
			case v < 0:
				life[j*64] = -1
			case v > 1<<31-1:
				life[j*64] = 1<<31 - 1
			default:
				life[j*64] = int32(v)
			}
		}
	}
	for l := b.lanes; l < 64; l++ {
		life := b.life[l:]
		for j := 0; j < b.n; j++ {
			life[j*64] = -1
		}
	}
	for j := 0; j < b.n; j++ {
		b.recomputeGuard(j)
	}
	b.rawWrites = [64]int64{}
	b.newFaults = [64]int64{}
	b.bitWrites.reset()
}

// BeginRequest opens a request-scoped write, mirroring Block's
// request-scoped wear model: programming applies logically at WriteRaw
// time, wear settles once per net-changed cell at EndRequest, and
// wear-out deaths materialize at EndRequest.
func (b *LaneBlock) BeginRequest() {
	if b.inRequest {
		panic("pcm: nested BeginRequest")
	}
	b.inRequest = true
	copy(b.base, b.stored)
}

// WriteRaw performs one differential write of the transposed data image
// into every lane selected by mask: in each such lane, every non-stuck
// cell whose stored value differs from the datum flips to it.  data[j]
// bit l is lane l's intended value of cell j.  Programming pulses
// (flipped cells) count toward each lane's BitWrites immediately, like
// the scalar WriteRaw; endurance settles at EndRequest.
func (b *LaneBlock) WriteRaw(data []uint64, mask uint64) {
	if !b.inRequest {
		panic("pcm: LaneBlock.WriteRaw outside a request")
	}
	if len(data) != b.n {
		panic(fmt.Sprintf("pcm: write of %d positions into %d-bit lane block", len(data), b.n))
	}
	stored := b.stored
	data = data[:len(stored)]
	stuck := b.stuck[:len(stored)]
	// Per-lane pulse counting runs as a half-adder cascade in registers
	// (s1..s32 hold each lane's running count, one bit of weight per
	// accumulator) and drains into the counter's bit planes every 63
	// absorbed masks — the cascade's capacity, so no carry can leave s32.
	// One headroom check per call keeps the planes from overflowing.
	bw := &b.bitWrites
	if bw.adds+len(stored) >= 1<<len(bw.planes)-1 {
		bw.flush()
	}
	var s1, s2, s4, s8, s16, s32 uint64
	budget := 63
	for j := range stored {
		w := (stored[j] ^ data[j]) &^ stuck[j] & mask
		if w == 0 {
			continue
		}
		stored[j] ^= w
		s1, w = s1^w, s1&w
		s2, w = s2^w, s2&w
		s4, w = s4^w, s4&w
		s8, w = s8^w, s8&w
		s16, w = s16^w, s16&w
		s32 ^= w
		if budget--; budget == 0 {
			bw.drain(s1, s2, s4, s8, s16, s32, 63)
			s1, s2, s4, s8, s16, s32 = 0, 0, 0, 0, 0, 0
			budget = 63
		}
	}
	bw.drain(s1, s2, s4, s8, s16, s32, 63-budget)
	for m := mask; m != 0; {
		l := bits.TrailingZeros64(m)
		m &= m - 1
		b.rawWrites[l]++
	}
}

// EndRequest settles the open request: every lane cell whose stored
// value changed since BeginRequest is charged one pulse, cells whose
// budget ran out become stuck at their current (just written) value, and
// newly stuck positions enter the verify index.  Death timing is
// bit-identical to the scalar Block: a position's batched pulses are
// flushed and the final settlement processed exactly whenever its wear
// guard reaches 1.
func (b *LaneBlock) EndRequest() {
	if !b.inRequest {
		panic("pcm: EndRequest without BeginRequest")
	}
	b.inRequest = false
	stored := b.stored
	base := b.base[:len(stored)]
	guard := b.guard[:len(stored)]
	for j := range stored {
		m := stored[j] ^ base[j]
		if m == 0 {
			continue
		}
		if g := guard[j]; g > 1 {
			// No healthy lane's cell j can die for another g-1
			// settlements and no byte lane can overflow, so the pulses
			// just accumulate into the position's byte-lane counters.
			// Near-death (danger) lanes are the exception: each pulse on
			// one is death-checked against its exact remaining life.
			guard[j] = g - 1
			pend := b.pend[j*8 : j*8+8 : j*8+8]
			pend[0] += spread8(m)
			pend[1] += spread8(m >> 8)
			pend[2] += spread8(m >> 16)
			pend[3] += spread8(m >> 24)
			pend[4] += spread8(m >> 32)
			pend[5] += spread8(m >> 40)
			pend[6] += spread8(m >> 48)
			pend[7] += spread8(m >> 56)
			if dp := b.danger[j] & m; dp != 0 {
				b.dangerDeaths(j, dp)
			}
			continue
		}
		b.settleExact(j, m)
	}
}

// settleExact charges position j's pending batched pulses plus the
// final changed mask m exactly, registering deaths.  Immortal cells
// (<0) are skipped, and the request's own decrement hitting exactly 0
// is a death (the guard invariant keeps flushed backlog from killing a
// live lane's cell; the dead cell keeps its just-written value as the
// stuck value).  The
// flush, the decrement and the guard re-arm fuse into one pass over the
// 64 lanes — positions pinned to the exact path by a near-death lane
// settle on every request, so this is hot on long-lived pages.
func (b *LaneBlock) settleExact(j int, m uint64) {
	pend := b.pend[j*8 : j*8+8 : j*8+8]
	life := b.life[j*64 : j*64+64 : j*64+64]
	g := int32(255)
	var died, danger uint64
	for k := range pend {
		w := pend[k]
		pend[k] = 0
		base := k * 8
		// Rolling extraction, ascending lanes: the top byte of w is lane
		// base+0's pending count (spread8's byte order), and mm/sk walk
		// the pulse and retired bits.  The branches compile to
		// conditional moves; the store is unconditional (d is forced to
		// 0 for immortal cells, so untouched lanes rewrite their value).
		mm := m >> uint(base)
		sk := b.retired >> uint(base)
		lanes := life[base : base+8 : base+8]
		for i := range lanes {
			d := int32(w >> 56)
			w <<= 8
			pulse := mm & 1
			mm >>= 1
			ex := sk & 1
			sk >>= 1
			lf := lanes[i]
			d += int32(pulse)
			if lf < 0 {
				d = 0 // immortal
			}
			lf -= d
			lanes[i] = lf
			if lf == 0 {
				died |= pulse << uint(base+i)
			}
			dng := uint64(0)
			if uint32(lf-1) < dangerLife { // live and lf <= dangerLife
				dng = 1
			}
			if ex != 0 {
				dng = 0 // retired: out of both partitions
			}
			danger |= dng << uint(base+i)
			c := lf
			if c <= dangerLife {
				c = 1 << 30 // dead, immortal or danger: out of the guard min
			}
			if ex != 0 {
				c = 1 << 30 // retired
			}
			if c < g {
				g = c
			}
		}
	}
	b.guard[j] = g
	b.danger[j] = danger
	if died != 0 {
		b.stuck[j] |= died
		b.anyStuck[j/64] |= 1 << uint(j%64)
		for w := died; w != 0; {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			b.newFaults[l]++
		}
	}
}

// dangerDeaths death-checks the near-death lanes that pulsed this
// settlement (dp = danger[j] & changed mask).  A danger lane's exact
// remaining life is life minus its pending byte, which already includes
// this settlement's pulse, so the cell dies the moment the two are
// equal — the same request the scalar Block kills it on.  Dead lanes
// settle immediately (life 0, byte cleared) and leave the danger set;
// the guard is untouched, as danger lanes never contribute to its min.
func (b *LaneBlock) dangerDeaths(j int, dp uint64) {
	pend := b.pend[j*8 : j*8+8 : j*8+8]
	life := b.life[j*64 : j*64+64 : j*64+64]
	var died uint64
	for w := dp; w != 0; {
		l := bits.TrailingZeros64(w)
		w &= w - 1
		sh := uint(8 * (7 - l&7)) // spread8 byte order: top byte = lane 8k+0
		if d := int32(pend[l>>3] >> sh & 0xff); life[l] == d {
			life[l] = 0
			pend[l>>3] &^= uint64(0xff) << sh
			died |= 1 << uint(l)
			b.newFaults[l]++
		}
	}
	if died != 0 {
		b.danger[j] &^= died
		b.stuck[j] |= died
		b.anyStuck[j/64] |= 1 << uint(j%64)
	}
}

// flushPos folds position j's pending byte-lane pulse counts into the
// per-lane lifetimes.  The guard invariant guarantees none of the
// flushed pulses could have killed a live lane's cell; retired lanes may
// go negative harmlessly (they are out of every future broadcast op).
func (b *LaneBlock) flushPos(j int) {
	pend := b.pend[j*8 : j*8+8 : j*8+8]
	life := b.life[j*64 : j*64+64 : j*64+64]
	for k, w := range pend {
		if w == 0 {
			continue
		}
		pend[k] = 0
		base := k * 8
		for i := 7; w != 0; i-- {
			if d := int32(w & 0xff); d != 0 && life[base+i] >= 0 {
				life[base+i] -= d
			}
			w >>= 8
		}
	}
}

// FlushWear settles every pending batched pulse so life holds exact
// values, then re-arms the guards.  Accessors that expose lifetimes call
// it first.
func (b *LaneBlock) FlushWear() {
	for j := 0; j < b.n; j++ {
		b.flushPos(j)
		b.recomputeGuard(j)
	}
}

// recomputeGuard re-partitions position j from the current exact
// lifetimes: live non-retired lanes at dangerLife or below enter the
// danger set (per-pulse exact death checks), and the guard becomes the
// number of settlements the remaining healthy lanes can absorb before
// the shortest-lived one could die, capped at the byte-lane capacity.
// Dead cells (0), immortal cells (<0) and retired lanes join neither.
func (b *LaneBlock) recomputeGuard(j int) {
	life := b.life[j*64 : j*64+64 : j*64+64]
	g := int32(255)
	var danger uint64
	skip := b.retired
	for l := 0; l < 64; l++ {
		if skip&(1<<uint(l)) != 0 {
			continue
		}
		lf := life[l]
		if lf <= 0 {
			continue
		}
		if lf <= dangerLife {
			danger |= 1 << uint(l)
			continue
		}
		if lf < g {
			g = lf
		}
	}
	b.guard[j] = g
	b.danger[j] = danger
}

// Retire masks lane l out of the wear guards: its trial has ended, so
// its (possibly near-death) cells must not throttle the surviving
// lanes' batching.  The caller stops including the lane in WriteRaw
// masks; its stats remain readable.  Guards the lane was pinning low
// stay conservatively low until each position's next settle — a stale
// low guard only settles early, never late, and recomputeGuard raises
// it past the retired lane then.
func (b *LaneBlock) Retire(l int) {
	b.retired |= 1 << uint(l)
}

// VerifyErrors appends, in ascending cell order, every position where
// some lane in mask reads back a value different from the intended
// transposed image, mirroring the scalar Verify + AppendOnes scan each
// lane's scheme performs.  After a WriteRaw of the same image, every
// mismatch is a stuck-at-Wrong cell, so only positions in the anyStuck
// index can appear.
func (b *LaneBlock) VerifyErrors(data []uint64, mask uint64, buf []LaneErr) []LaneErr {
	for wi, w := range b.anyStuck {
		for w != 0 {
			j := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if errs := (b.stored[j] ^ data[j]) & b.stuck[j] & mask; errs != 0 {
				buf = append(buf, LaneErr{Pos: j, Lanes: errs})
			}
		}
	}
	return buf
}

// Stats returns lane l's wear and traffic counters, matching what the
// scalar trial's Block.Stats would report.
func (b *LaneBlock) Stats(l int) Stats {
	b.bitWrites.flush()
	return Stats{
		RawWrites: b.rawWrites[l],
		BitWrites: b.bitWrites.total[l],
		NewFaults: b.newFaults[l],
	}
}

// FaultCount returns lane l's stuck-cell count.
func (b *LaneBlock) FaultCount(l int) int {
	n := 0
	bit := uint64(1) << uint(l)
	for wi, w := range b.anyStuck {
		for w != 0 {
			j := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if b.stuck[j]&bit != 0 {
				n++
			}
		}
	}
	return n
}

// StoredBit returns lane l's current value of cell j (tests and decoded
// reads).
func (b *LaneBlock) StoredBit(j, l int) bool { return b.stored[j]&(1<<uint(l)) != 0 }

// IsStuck reports whether cell j is stuck in lane l.
func (b *LaneBlock) IsStuck(j, l int) bool { return b.stuck[j]&(1<<uint(l)) != 0 }

// RemainingLife returns lane l's remaining endurance for cell j (-1 when
// immortal), settling pending wear first.  Exposed for tests.
func (b *LaneBlock) RemainingLife(j, l int) int32 {
	b.FlushWear()
	return b.life[j*64+l]
}
