package pcm

import (
	"fmt"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/xrand"
)

// refBlock is the naive wear model the bit-plane counters must match:
// one int32 of remaining life per cell, decremented per pulse, stuck
// when it reaches 0, -1 for an immortal cell.
type refBlock struct {
	stored, stuck, base []bool
	life                []int32
	stats               Stats
	inRequest           bool
}

func newRefBlock(n int, d dist.Lifetime, rng *xrand.Rand) *refBlock {
	r := &refBlock{
		stored: make([]bool, n),
		stuck:  make([]bool, n),
		base:   make([]bool, n),
		life:   make([]int32, n),
	}
	r.reset(d, rng)
	return r
}

func (r *refBlock) reset(d dist.Lifetime, rng *xrand.Rand) {
	r.stats = Stats{}
	for i := range r.life {
		r.stored[i], r.stuck[i] = false, false
		switch v := d.Sample(rng); {
		case v < 0:
			r.life[i] = -1
		case v > 1<<31-1:
			r.life[i] = 1<<31 - 1
		default:
			r.life[i] = int32(max(v, 1))
		}
	}
}

func (r *refBlock) charge(i int) {
	if r.life[i] < 0 {
		return
	}
	if r.life[i]--; r.life[i] == 0 {
		r.stuck[i] = true
		r.stats.NewFaults++
	}
}

func (r *refBlock) writeRaw(data *bitvec.Vector) int {
	r.stats.RawWrites++
	pulses := 0
	for i := range r.stored {
		if r.stuck[i] || r.stored[i] == data.Get(i) {
			continue
		}
		pulses++
		r.stored[i] = !r.stored[i]
		if !r.inRequest {
			r.charge(i)
		}
	}
	r.stats.BitWrites += int64(pulses)
	return pulses
}

func (r *refBlock) beginRequest() {
	r.inRequest = true
	copy(r.base, r.stored)
}

func (r *refBlock) endRequest() int {
	r.inRequest = false
	pulses := 0
	for i := range r.stored {
		if !r.stuck[i] && r.stored[i] != r.base[i] {
			pulses++
			r.charge(i)
		}
	}
	return pulses
}

func (r *refBlock) injectFault(i int, v bool) {
	if !r.stuck[i] {
		r.stats.NewFaults++
	}
	r.stuck[i], r.stored[i], r.life[i] = true, v, 0
}

// remainingLife mirrors Block.RemainingLife: 0 once stuck.
func (r *refBlock) remainingLife(i int) int32 {
	if r.stuck[i] {
		return 0
	}
	return r.life[i]
}

// mixedLife draws a block of mostly short lifetimes with some immortal
// cells and some clamped to 2^31-1, so one block holds every counter
// kind and the deepest planes.
type mixedLife struct{}

func (mixedLife) Sample(rng *xrand.Rand) int64 {
	switch r := rng.Intn(16); r {
	case 0:
		return -1
	case 1:
		return 1 << 40
	default:
		return int64(r)
	}
}
func (mixedLife) Mean() float64  { return 8 }
func (mixedLife) String() string { return "mixed" }

// wearHarness drives a Block and a refBlock in lockstep.  Lifetimes come
// from two RNGs with the same seed; write data and op arguments from a
// third.
type wearHarness struct {
	t        testing.TB
	n        int
	d        dist.Lifetime
	blk      *Block
	ref      *refBlock
	lifeRNG  [2]*xrand.Rand
	rng      *xrand.Rand
	data     *bitvec.Vector
	lastStep string
}

func newWearHarness(t testing.TB, n int, d dist.Lifetime, seed int64) *wearHarness {
	h := &wearHarness{
		t:       t,
		n:       n,
		d:       d,
		lifeRNG: [2]*xrand.Rand{xrand.New(seed), xrand.New(seed)},
		rng:     xrand.New(seed ^ 0x5eed),
		data:    bitvec.New(n),
	}
	h.blk = NewBlock(n, d, h.lifeRNG[0])
	h.ref = newRefBlock(n, d, h.lifeRNG[1])
	h.check("construction")
	return h
}

// fillData picks the next write datum: random, or the complement of the
// stored contents so every healthy cell takes a pulse and long
// lifetimes drain quickly.
func (h *wearHarness) fillData(complement bool) {
	if !complement {
		bitvec.RandomInto(h.data, h.rng)
		return
	}
	for i := 0; i < h.n; i++ {
		h.data.Set(i, !h.ref.stored[i])
	}
}

func (h *wearHarness) write() {
	if got, want := h.blk.WriteRaw(h.data), h.ref.writeRaw(h.data); got != want {
		h.t.Fatalf("%s: WriteRaw pulses %d, reference %d", h.lastStep, got, want)
	}
}

// step applies one operation, chosen by op, to both models and compares
// them.  arg parameterizes it: data kind, writes per request, fault cell.
func (h *wearHarness) step(op, arg uint8) {
	switch op % 8 {
	case 0, 1, 2: // per-pulse write
		h.lastStep = fmt.Sprintf("WriteRaw(complement=%v)", arg&1 == 1)
		h.fillData(arg&1 == 1)
		h.write()
	case 3, 4, 5: // request of 1-4 writes
		h.lastStep = fmt.Sprintf("request of %d writes", 1+int(arg>>1)%4)
		h.blk.BeginRequest()
		h.ref.beginRequest()
		for w := 0; w <= int(arg>>1)%4; w++ {
			h.fillData(arg&1 == 1 && w == 0)
			h.write()
		}
		if got, want := h.blk.EndRequest(), h.ref.endRequest(); got != want {
			h.t.Fatalf("%s: EndRequest pulses %d, reference %d", h.lastStep, got, want)
		}
	case 6:
		i, v := h.rng.Intn(h.n), arg&1 == 1
		h.lastStep = fmt.Sprintf("InjectFault(%d, %v)", i, v)
		h.blk.InjectFault(i, v)
		h.ref.injectFault(i, v)
	case 7:
		if arg%4 != 0 {
			h.step(0, arg) // keep resets rare
			return
		}
		h.lastStep = "Reset"
		h.blk.Reset(h.d, h.lifeRNG[0])
		h.ref.reset(h.d, h.lifeRNG[1])
	}
	h.check(h.lastStep)
}

func (h *wearHarness) check(when string) {
	h.t.Helper()
	if got, want := h.blk.Stats(), h.ref.stats; got != want {
		h.t.Fatalf("%s: stats %+v, reference %+v", when, got, want)
	}
	for i := 0; i < h.n; i++ {
		if got, want := h.blk.stored.Get(i), h.ref.stored[i]; got != want {
			h.t.Fatalf("%s: cell %d stored %v, reference %v", when, i, got, want)
		}
		if got, want := h.blk.IsStuck(i), h.ref.stuck[i]; got != want {
			h.t.Fatalf("%s: cell %d stuck %v, reference %v", when, i, got, want)
		}
		if got, want := h.blk.RemainingLife(i), h.ref.remainingLife(i); got != want {
			h.t.Fatalf("%s: cell %d remaining life %d, reference %d", when, i, got, want)
		}
	}
}

var (
	wearSizes     = []int{8, 64, 72, 256, 512}
	wearLifetimes = []dist.Lifetime{
		dist.Fixed(1),
		dist.Fixed(3),
		dist.NewNormal(50),
		dist.NewNormal(20000),
		dist.Fixed(1 << 40), // clamped to 2^31-1
		mixedLife{},
		dist.Immortal{},
	}
)

// TestWearMatchesReference drives every size and lifetime through random
// per-pulse writes, requests, fault injections and resets, comparing the
// bit-plane counters with the per-cell model after every step.
func TestWearMatchesReference(t *testing.T) {
	for _, n := range wearSizes {
		for li, d := range wearLifetimes {
			t.Run(fmt.Sprintf("n=%d/%v", n, d), func(t *testing.T) {
				h := newWearHarness(t, n, d, int64(n*31+li))
				for s := 0; s < 400; s++ {
					h.step(uint8(h.rng.Intn(8)), uint8(h.rng.Intn(256)))
				}
			})
		}
	}
}

// TestWearLongLifetimeDeaths wears Normal(20000) cells to death with
// complement writes, so borrows ripple through every plane and the
// deaths land on the deep counters, not just the short ones.
func TestWearLongLifetimeDeaths(t *testing.T) {
	if testing.Short() {
		t.Skip("long wear-out run")
	}
	h := newWearHarness(t, 72, dist.NewNormal(20000), 7)
	for s := 0; h.blk.FaultCount() < 72; s++ {
		if s > 60000 {
			t.Fatalf("only %d of 72 cells dead after %d writes", h.blk.FaultCount(), s)
		}
		h.step(uint8(3*(s%2)), 1) // alternate per-pulse and request writes, complement data
	}
}

// FuzzWear drives the lockstep harness with fuzz-chosen size, lifetime,
// seed and op sequence: each pair of input bytes is one (op, arg) step.
func FuzzWear(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), []byte{0, 1, 3, 3, 6, 0, 7, 0})
	f.Add(uint8(2), uint8(2), int64(2), []byte{1, 1, 1, 1, 4, 7, 6, 1, 2, 1})
	f.Add(uint8(4), uint8(5), int64(3), []byte{5, 1, 5, 1, 5, 1, 6, 0, 7, 4, 0, 1})
	f.Fuzz(func(t *testing.T, size, life uint8, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		n := wearSizes[int(size)%len(wearSizes)]
		h := newWearHarness(t, n, wearLifetimes[int(life)%len(wearLifetimes)], seed)
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(ops[i], ops[i+1])
		}
	})
}
