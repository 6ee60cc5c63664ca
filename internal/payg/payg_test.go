package payg

import (
	"aegis/internal/xrand"
	"errors"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

func TestPool(t *testing.T) {
	p := NewPool(2)
	if p.Capacity() != 2 || p.Used() != 0 {
		t.Fatalf("fresh pool: %d/%d", p.Used(), p.Capacity())
	}
	if !p.acquire() || !p.acquire() {
		t.Fatal("acquire failed with capacity left")
	}
	if p.acquire() {
		t.Fatal("acquire succeeded beyond capacity")
	}
	if NewPool(-3).Capacity() != 0 {
		t.Fatal("negative capacity not clamped")
	}
}

func TestNewBlockValidation(t *testing.T) {
	pool := NewPool(1)
	if _, err := NewBlock(256, 1, pool, core.MustFactory(512, 61)); err == nil {
		t.Fatal("mismatched GEC block size accepted")
	}
	if _, err := NewBlock(512, -1, pool, core.MustFactory(512, 61)); err == nil {
		t.Fatal("negative LEC entries accepted")
	}
}

func TestLECHandlesFirstFault(t *testing.T) {
	pool := NewPool(1)
	b, err := NewBlock(512, 1, pool, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(7, true)
	rng := xrand.New(1)
	for i := 0; i < 5; i++ {
		data := bitvec.Random(512, rng)
		if err := b.Write(blk, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !b.Read(blk, nil).Equal(data) {
			t.Fatalf("read %d differs", i)
		}
	}
	if b.Escalated() {
		t.Fatal("escalated although LEC suffices for one fault")
	}
	if pool.Used() != 0 {
		t.Fatal("pool consumed without escalation")
	}
}

func TestEscalationOnSecondFault(t *testing.T) {
	pool := NewPool(1)
	b, err := NewBlock(512, 1, pool, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(7, true)
	blk.InjectFault(100, false)
	data := bitvec.New(512)
	data.Set(100, true) // both faults stuck-at-Wrong
	if err := b.Write(blk, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !b.Escalated() {
		t.Fatal("no escalation with two W faults and one LEC entry")
	}
	if pool.Used() != 1 {
		t.Fatalf("pool used = %d", pool.Used())
	}
	if !b.Read(blk, nil).Equal(data) {
		t.Fatal("read differs after escalation")
	}
	// Further writes stay on the GEC.
	next := bitvec.Random(512, xrand.New(2))
	if err := b.Write(blk, next); err != nil {
		t.Fatalf("post-escalation write: %v", err)
	}
	if !b.Read(blk, nil).Equal(next) {
		t.Fatal("post-escalation read differs")
	}
}

func TestPoolExhaustionKillsBlock(t *testing.T) {
	pool := NewPool(0)
	b, err := NewBlock(512, 1, pool, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	blk := pcm.NewImmortalBlock(512)
	blk.InjectFault(7, true)
	blk.InjectFault(100, true)
	err = b.Write(blk, bitvec.New(512))
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		t.Fatal("ErrPoolExhausted must wrap ErrUnrecoverable")
	}
}

func TestSharedPoolAcrossBlocks(t *testing.T) {
	pool := NewPool(1)
	mk := func() (*Block, *pcm.Block) {
		b, err := NewBlock(512, 1, pool, core.MustFactory(512, 61))
		if err != nil {
			t.Fatal(err)
		}
		blk := pcm.NewImmortalBlock(512)
		blk.InjectFault(7, true)
		blk.InjectFault(100, true)
		return b, blk
	}
	b1, blk1 := mk()
	b2, blk2 := mk()
	if err := b1.Write(blk1, bitvec.New(512)); err != nil {
		t.Fatalf("first block should escalate: %v", err)
	}
	err := b2.Write(blk2, bitvec.New(512))
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("second block should find the pool empty, got %v", err)
	}
}

func TestOverheadIsLECOnly(t *testing.T) {
	pool := NewPool(4)
	b, err := NewBlock(512, 1, pool, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.OverheadBits(); got != 11 { // ECP1 on 512 bits
		t.Fatalf("OverheadBits = %d, want 11", got)
	}
	if b.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestNewFactoryValidation(t *testing.T) {
	if _, err := NewFactory(256, 1, 4, core.MustFactory(512, 61)); err == nil {
		t.Fatal("mismatched GEC block size accepted")
	}
	if _, err := NewFactory(512, -1, 4, core.MustFactory(512, 61)); err == nil {
		t.Fatal("negative LEC entries accepted")
	}
	if _, err := NewFactory(512, 1, -1, core.MustFactory(512, 61)); err == nil {
		t.Fatal("negative pool accepted")
	}
}

func TestFactoryNameEncodesPool(t *testing.T) {
	a := mustFactory(t, 8)
	b := mustFactory(t, 9)
	if a.Name() == b.Name() {
		t.Fatalf("pool sizes share the name %q", a.Name())
	}
	if got := a.New().Name(); got != a.Name() {
		t.Fatalf("block name %q, factory name %q", got, a.Name())
	}
	if a.OverheadBits() != 11 || a.BlockBits() != 512 {
		t.Fatalf("geometry: %d bits, %d overhead", a.BlockBits(), a.OverheadBits())
	}
}

// pageConfig is a small page study: 32 × 512-bit blocks, short lives.
func pageConfig() sim.Config {
	return sim.Config{BlockBits: 512, PageBytes: 2048, MeanLife: 400, CoV: 0.25, Trials: 3, Seed: 3, Workers: 2}
}

func mustFactory(t *testing.T, slots int) *Factory {
	t.Helper()
	f, err := NewFactory(512, 1, slots, core.MustFactory(512, 61))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGECSlotsBeatPureLEC(t *testing.T) {
	lecOnly := sim.Pages(mustFactory(t, 0), pageConfig())
	withGEC := sim.Pages(mustFactory(t, 8), pageConfig())
	for i := range withGEC {
		if withGEC[i].Lifetime <= lecOnly[i].Lifetime {
			t.Fatalf("trial %d: GEC slots did not extend the page: %d vs %d", i, withGEC[i].Lifetime, lecOnly[i].Lifetime)
		}
		if withGEC[i].Spent == 0 || lecOnly[i].Spent != 0 {
			t.Fatalf("trial %d: slots used %d with a pool, %d without", i, withGEC[i].Spent, lecOnly[i].Spent)
		}
	}
}

// recordingFactory keeps every block its pages build, so a test can
// inspect them after sim.Pages has run.
type recordingFactory struct {
	*Factory
	blocks []*Block
}

func (r *recordingFactory) NewPage() sim.Page {
	return &recordingPage{Page: r.Factory.NewPage(), r: r}
}

type recordingPage struct {
	sim.Page
	r *recordingFactory
}

func (p *recordingPage) New() scheme.Scheme {
	b := p.Page.New().(*Block)
	p.r.blocks = append(p.r.blocks, b)
	return b
}

func TestSlotsUsedEqualEscalatedBlocks(t *testing.T) {
	rec := &recordingFactory{Factory: mustFactory(t, 8)}
	cfg := pageConfig()
	cfg.Trials = 1
	cfg.Workers = 1 // rec is not safe for concurrent pages
	rs := sim.Pages(rec, cfg)
	if len(rec.blocks) != cfg.BlocksPerPage() {
		t.Fatalf("page built %d blocks, want %d", len(rec.blocks), cfg.BlocksPerPage())
	}
	escalated := 0
	for _, b := range rec.blocks {
		if b.Escalated() {
			escalated++
		}
	}
	if escalated == 0 || rs[0].Spent != escalated {
		t.Fatalf("slots used (%d) != escalated blocks (%d)", rs[0].Spent, escalated)
	}
}

// TestZeroSlotsIsECP1 pins the page hook's neutrality: with an empty
// pool, a PAYG page is an ECP1 page, trial by trial.
func TestZeroSlotsIsECP1(t *testing.T) {
	cfg := pageConfig()
	cfg.Trials = 6
	want := sim.Pages(ecp.MustFactory(512, 1), cfg)
	got := sim.Pages(mustFactory(t, 0), cfg)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: PAYG with no slots %+v, ECP1 %+v", i, got[i], want[i])
		}
	}
}
