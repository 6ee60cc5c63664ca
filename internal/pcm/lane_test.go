package pcm

import (
	"aegis/internal/xrand"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
)

// transposeLaneData packs per-lane data vectors into the transposed
// image: dataT[j] bit l = lane l's bit j.
func transposeLaneData(dataT []uint64, lane [][]uint64, n int) {
	w := (n + 63) / 64
	for c := 0; c < w; c++ {
		var tile [64]uint64
		for l := range lane {
			tile[l] = lane[l][c]
		}
		bitvec.Transpose64(&tile)
		base := c * 64
		m := n - base
		if m > 64 {
			m = 64
		}
		copy(dataT[base:base+m], tile[:m])
	}
}

// laneHarness drives one LaneBlock and, per lane, one scalar Block
// through identical write-request sequences, comparing every observable
// after each request.
type laneHarness struct {
	t      *testing.T
	n      int
	lanes  int
	sliced *LaneBlock
	scalar []*Block
	// dataRng generates identical random data per lane on both arms.
	dataRng []*xrand.Rand
	laneBuf [][]uint64
	vec     []*bitvec.Vector
	dataT   []uint64
	active  uint64
}

func newLaneHarness(t *testing.T, n, lanes int, mean float64, seed int64) *laneHarness {
	d := dist.Normal{MeanLife: mean, CoV: 0.25}
	w := (n + 63) / 64
	h := &laneHarness{t: t, n: n, lanes: lanes, dataT: make([]uint64, n)}
	rngs := make([]xrand.Rand, lanes)
	for l := 0; l < lanes; l++ {
		rngs[l].Seed(seed + int64(l))
		h.scalar = append(h.scalar, NewBlock(n, d, xrand.New(seed+int64(l))))
		h.dataRng = append(h.dataRng, xrand.New(seed^0x5eed+int64(l)))
		h.laneBuf = append(h.laneBuf, make([]uint64, w))
		h.vec = append(h.vec, bitvec.New(n))
	}
	h.sliced = NewLaneBlock(n)
	h.sliced.Reset(d, rngs)
	h.active = ^uint64(0) >> uint(64-lanes)
	return h
}

// request performs one write request on every active lane: `writes`
// WriteRaw calls of fresh random data inside one Begin/EndRequest pair
// (writes > 1 exercises the intra-request rewrite accounting).
func (h *laneHarness) request(writes int) {
	h.sliced.BeginRequest()
	for l := 0; l < h.lanes; l++ {
		if h.active&(1<<uint(l)) != 0 {
			h.scalar[l].BeginRequest()
		}
	}
	for wr := 0; wr < writes; wr++ {
		for l := 0; l < h.lanes; l++ {
			if h.active&(1<<uint(l)) == 0 {
				continue
			}
			bitvec.RandomInto(h.vec[l], h.dataRng[l])
			copy(h.laneBuf[l], h.vec[l].Words())
			h.scalar[l].WriteRaw(h.vec[l])
		}
		transposeLaneData(h.dataT, h.laneBuf, h.n)
		h.sliced.WriteRaw(h.dataT, h.active)
	}
	h.sliced.EndRequest()
	for l := 0; l < h.lanes; l++ {
		if h.active&(1<<uint(l)) != 0 {
			h.scalar[l].EndRequest()
		}
	}
}

// retire removes a lane from the lockstep group, as the simulator does
// when its trial ends.
func (h *laneHarness) retire(l int) {
	h.active &^= 1 << uint(l)
	h.sliced.FlushWear()
	h.sliced.Retire(l)
}

// compare checks every lane observable against its scalar twin.  The
// sliced arm settles pending batched wear once up front so its per-cell
// lifetime reads are plain array accesses (its RemainingLife would
// re-flush per call, quadratically); the scalar Block's counters are
// always exact.
func (h *laneHarness) compare(when string) {
	h.t.Helper()
	h.sliced.FlushWear()
	for l := 0; l < h.lanes; l++ {
		sb := h.scalar[l]
		if got, want := h.sliced.Stats(l), sb.Stats(); got != want {
			h.t.Fatalf("%s: lane %d stats diverge: sliced %+v scalar %+v", when, l, got, want)
		}
		if got, want := h.sliced.FaultCount(l), sb.FaultCount(); got != want {
			h.t.Fatalf("%s: lane %d fault count %d, scalar %d", when, l, got, want)
		}
		for j := 0; j < h.n; j++ {
			if got, want := h.sliced.StoredBit(j, l), sb.stored.Get(j); got != want {
				h.t.Fatalf("%s: lane %d cell %d stored %v, scalar %v", when, l, j, got, want)
			}
			if got, want := h.sliced.IsStuck(j, l), sb.IsStuck(j); got != want {
				h.t.Fatalf("%s: lane %d cell %d stuck %v, scalar %v", when, l, j, got, want)
			}
			if got, want := h.sliced.life[j*64+l], sb.RemainingLife(j); got != want {
				h.t.Fatalf("%s: lane %d cell %d life %d, scalar %d", when, l, j, got, want)
			}
		}
	}
}

// TestLaneBlockMatchesScalar is the foundational differential: a
// LaneBlock driven in lockstep is cell-for-cell, counter-for-counter
// identical to 64 scalar Blocks driven one lane at a time, through
// enough requests that most cells die.
func TestLaneBlockMatchesScalar(t *testing.T) {
	cases := []struct {
		n, lanes int
		mean     float64
	}{
		{64, 1, 25},
		{64, 7, 25},
		{64, 64, 25},
		{100, 5, 30}, // n not a multiple of 64 exercises the transpose tail
		{512, 64, 40},
	}
	for _, tc := range cases {
		h := newLaneHarness(t, tc.n, tc.lanes, tc.mean, 99)
		for r := 0; r < int(tc.mean)*3; r++ {
			writes := 1
			if r%5 == 1 {
				writes = 2 // intra-request rewrites charge wear once but BitWrites per pulse
			}
			h.request(writes)
			if r%7 == 0 {
				h.compare("mid-run")
			}
		}
		h.compare("end")
	}
}

// TestLaneBlockRetirement pins that retiring lanes (including
// near-death ones that would otherwise pin the wear guards) leaves the
// surviving lanes' evolution untouched.
func TestLaneBlockRetirement(t *testing.T) {
	h := newLaneHarness(t, 64, 8, 40, 7)
	for r := 0; r < 120; r++ {
		h.request(1)
		switch r {
		case 30:
			h.retire(2)
		case 31:
			h.retire(7)
		case 60:
			h.retire(0)
		}
		if r%10 == 0 {
			h.compare("with-retirement")
		}
	}
	h.compare("final")
}

// TestLaneBlockVerifyErrors pins the sparse verify scan: the reported
// (position, lane) mismatches must equal each scalar lane's Verify
// vector, in ascending position order.
func TestLaneBlockVerifyErrors(t *testing.T) {
	h := newLaneHarness(t, 64, 16, 15, 3)
	var errs []LaneErr
	scalarErrs := bitvec.New(64)
	for r := 0; r < 80; r++ {
		h.request(1)
		// Re-verify the last written data on both arms.
		errs = h.sliced.VerifyErrors(h.dataT, h.active, errs[:0])
		last :=
			-1
		for _, e := range errs {
			if e.Pos <= last {
				t.Fatalf("request %d: VerifyErrors not ascending: %d after %d", r, e.Pos, last)
			}
			last = e.Pos
		}
		for l := 0; l < h.lanes; l++ {
			if h.active&(1<<uint(l)) == 0 {
				continue
			}
			h.scalar[l].Verify(h.vec[l], scalarErrs)
			for j := 0; j < 64; j++ {
				want := scalarErrs.Get(j)
				got := false
				for _, e := range errs {
					if e.Pos == j && e.Lanes&(1<<uint(l)) != 0 {
						got = true
					}
				}
				if got != want {
					t.Fatalf("request %d lane %d cell %d: sliced err %v, scalar %v", r, l, j, got, want)
				}
			}
		}
	}
}

// TestLaneCounterFold pins the carry-save lane counter — fed through the
// register half-adder cascade WriteRaw uses — across its fold boundary.
func TestLaneCounterFold(t *testing.T) {
	var c laneCounter
	rng := xrand.New(11)
	want := [64]int64{}
	adds := 1<<19 + 137
	var s1, s2, s4, s8, s16, s32 uint64
	budget := 63
	for i := 0; i < adds; i++ {
		w := rng.Uint64()
		for l := 0; l < 64; l++ {
			if w&(1<<uint(l)) != 0 {
				want[l]++
			}
		}
		s1, w = s1^w, s1&w
		s2, w = s2^w, s2&w
		s4, w = s4^w, s4&w
		s8, w = s8^w, s8&w
		s16, w = s16^w, s16&w
		s32 ^= w
		if budget--; budget == 0 {
			c.drain(s1, s2, s4, s8, s16, s32, 63)
			s1, s2, s4, s8, s16, s32 = 0, 0, 0, 0, 0, 0
			budget = 63
		}
		if i == adds/2 {
			// Mid-stream fold, as WriteRaw's headroom check would do.
			c.drain(s1, s2, s4, s8, s16, s32, 63-budget)
			s1, s2, s4, s8, s16, s32 = 0, 0, 0, 0, 0, 0
			budget = 63
			c.flush()
		}
	}
	c.drain(s1, s2, s4, s8, s16, s32, 63-budget)
	c.flush()
	if c.total != want {
		t.Fatal("laneCounter totals diverge from per-bit reference across fold boundary")
	}
}
