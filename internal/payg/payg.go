// Package payg implements the Pay-As-You-Go hard-error correction
// framework (Qureshi, MICRO 2011) that the paper's related work singles
// out as a natural host for Aegis: "As PAYG is a framework that can
// employ any error correction scheme in its GEC component, Aegis
// complements PAYG with its strong fault tolerance capability and its
// space efficiency" (§4).
//
// Cell lifetime varies so much that provisioning every block for the
// worst case wastes space: most blocks die with far fewer faults than
// the budget assumes.  PAYG gives each block a cheap Local Error
// Correction entry (LEC — an ECP-style pointer, enough for the first
// fault) and keeps a small Global Error Correction (GEC) pool; only the
// minority of blocks whose faults outgrow their LEC get a GEC slot,
// which here instantiates a full recovery scheme (e.g. Aegis 9×61) for
// that block on demand.
//
// A block dies when its LEC is exhausted and no GEC slot is available —
// or when even the GEC scheme cannot mask its faults.
package payg

import (
	"errors"
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/ecp"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// ErrPoolExhausted reports that a block needed a GEC slot but the global
// pool was empty.  It wraps scheme.ErrUnrecoverable so harness code that
// checks for unrecoverable writes keeps working.
var ErrPoolExhausted = fmt.Errorf("payg: GEC pool exhausted: %w", scheme.ErrUnrecoverable)

// Pool is the shared GEC slot budget of one protection domain (a page
// or a device).  It is not safe for concurrent use; simulation workers
// own their domains.
type Pool struct {
	capacity int
	used     int
}

// NewPool returns a pool of nSlots GEC slots.
func NewPool(nSlots int) *Pool {
	if nSlots < 0 {
		nSlots = 0
	}
	return &Pool{capacity: nSlots}
}

// Capacity returns the total slot budget.
func (p *Pool) Capacity() int { return p.capacity }

// Used returns how many slots have been handed out.
func (p *Pool) Used() int { return p.used }

// acquire takes one slot, reporting false when none remain.
func (p *Pool) acquire() bool {
	if p.used >= p.capacity {
		return false
	}
	p.used++
	return true
}

// Factory configures PAYG pages: every block gets an ECP LEC, and each
// page holds a pool of GEC slots.  It is a sim.PageFactory, so sim.Pages
// (and through it the shard engine) runs PAYG pages.  Escalation stays
// inside Block.Write, so a block's LEC attempt and its GEC retry share
// one write request's wear charge.
type Factory struct {
	lec   *ecp.Factory
	slots int
	gec   scheme.Factory
}

var _ sim.PageFactory = (*Factory)(nil)

// NewFactory returns the PAYG configuration of n-bit blocks with
// lecEntries local pointers each and a per-page pool of slots GEC slots
// built by gecFactory.
func NewFactory(n, lecEntries, slots int, gecFactory scheme.Factory) (*Factory, error) {
	if slots < 0 {
		return nil, fmt.Errorf("payg: negative GEC pool %d", slots)
	}
	if _, err := NewBlock(n, lecEntries, nil, gecFactory); err != nil {
		return nil, err
	}
	return &Factory{lec: &ecp.Factory{N: n, Entries: lecEntries}, slots: slots, gec: gecFactory}, nil
}

// Name implements scheme.Factory.  It names the pool size, which
// changes results, so shard keys of different pools never collide.
func (f *Factory) Name() string {
	return fmt.Sprintf("PAYG[%s+%d %s slots]", f.lec.Name(), f.slots, f.gec.Name())
}

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.lec.BlockBits() }

// OverheadBits implements scheme.Factory: the LEC only (see
// Block.OverheadBits).
func (f *Factory) OverheadBits() int { return f.lec.OverheadBits() }

// New implements scheme.Factory with a block that owns a whole pool: a
// block outside a page shares its slots with no one.
func (f *Factory) New() scheme.Scheme { return f.NewPage().New() }

// NewPage implements sim.PageFactory: a fresh pool for one page.
func (f *Factory) NewPage() sim.Page { return &page{f: f, pool: Pool{capacity: f.slots}} }

// page is the GEC pool of one page and the blocks it serves.
type page struct {
	f    *Factory
	pool Pool
}

// New implements sim.Page: a block drawing on the page's pool.
func (p *page) New() scheme.Scheme {
	return &Block{lec: p.f.lec.New().(*ecp.ECP), pool: &p.pool, gecF: p.f.gec}
}

// Spare implements sim.Page.  PAYG has no spare blocks: escalation
// happens inside the failed request, so a block that still fails is
// dead.
func (p *page) Spare(*pcm.Block) bool { return false }

// Spent implements sim.Page: the GEC slots handed out.
func (p *page) Spent() int { return p.pool.Used() }

// Block protects one data block under PAYG: an ECP-style LEC with a
// fixed number of local entries, escalating to a scheme built by the
// GEC factory when the local entries run out.
type Block struct {
	lec  *ecp.ECP
	pool *Pool
	gecF scheme.Factory
	gec  scheme.Scheme // non-nil once escalated
}

var _ scheme.Scheme = (*Block)(nil)

// NewBlock returns a PAYG-protected block with lecEntries local pointers
// and on-demand GEC slots from pool built by gecFactory.
func NewBlock(n, lecEntries int, pool *Pool, gecFactory scheme.Factory) (*Block, error) {
	if gecFactory.BlockBits() != n {
		return nil, fmt.Errorf("payg: GEC factory protects %d-bit blocks, want %d", gecFactory.BlockBits(), n)
	}
	lec, err := ecp.New(n, lecEntries)
	if err != nil {
		return nil, err
	}
	return &Block{lec: lec, pool: pool, gecF: gecFactory}, nil
}

// Name implements scheme.Scheme.
func (b *Block) Name() string {
	return fmt.Sprintf("PAYG[%s+%d %s slots]", b.lec.Name(), b.pool.Capacity(), b.gecF.Name())
}

// OverheadBits implements scheme.Scheme: the per-block cost is the LEC
// only.  The GEC pool and its mapping structures are a domain-level cost
// accounted by the experiment (see experiments.PAYG), exactly as the
// PAYG paper budgets them.
func (b *Block) OverheadBits() int { return b.lec.OverheadBits() }

// Escalated reports whether the block holds a GEC slot.
func (b *Block) Escalated() bool { return b.gec != nil }

// Write implements scheme.Scheme.
func (b *Block) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if b.gec != nil {
		return b.gec.Write(blk, data)
	}
	err := b.lec.Write(blk, data)
	if err == nil {
		return nil
	}
	if !errors.Is(err, scheme.ErrUnrecoverable) {
		return err
	}
	// LEC exhausted: escalate to a GEC slot if one remains.
	if !b.pool.acquire() {
		return ErrPoolExhausted
	}
	b.gec = b.gecF.New()
	return b.gec.Write(blk, data)
}

// Read implements scheme.Scheme.
func (b *Block) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	if b.gec != nil {
		return b.gec.Read(blk, dst)
	}
	return b.lec.Read(blk, dst)
}
