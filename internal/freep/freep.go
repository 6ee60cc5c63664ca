// Package freep models FREE-p (Yoon et al., HPCA 2011), the OS-assisted
// block remapping scheme the paper's §4 discusses: once a data block's
// in-block protection is exhausted, accesses are redirected to a spare
// block "via a pointer embedded in the faulty block" — the dead block
// still has plenty of working cells to hold a pointer written with
// modular redundancy.
//
// The paper's point about FREE-p is relational: "With Aegis's strong
// fault tolerance capability, the re-direction as well as loss of faulty
// pages can be substantially delayed."  The `freep` experiment measures
// exactly that trade: spare blocks are expensive (a whole data block plus
// its scheme overhead each), so bits spent upgrading the in-block scheme
// go further than bits spent on spares.
package freep

import (
	"fmt"

	"aegis/internal/pcm"
	"aegis/internal/plane"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// pointerRedundancy is the modular redundancy FREE-p writes the embedded
// pointer with (the FREE-p paper uses 7-way voting).
const pointerRedundancy = 7

// Factory configures FREE-p pages: every block is protected by an
// in-block scheme, and each page holds a budget of spare blocks.  It is
// a sim.PageFactory, so sim.Pages (and through it the shard engine)
// runs FREE-p pages: when a block's scheme gives up, the page redirects
// it to a fresh spare (unworn cells, fresh scheme instance) and the
// write retries there, as FREE-p's nearly-free read path implies.
type Factory struct {
	inner  scheme.Factory
	spares int
}

var _ sim.PageFactory = (*Factory)(nil)

// NewFactory returns the FREE-p configuration of inner-protected blocks
// with spares spare blocks per page.
func NewFactory(inner scheme.Factory, spares int) (*Factory, error) {
	if inner == nil {
		return nil, fmt.Errorf("freep: no in-block scheme")
	}
	if spares < 0 {
		return nil, fmt.Errorf("freep: negative spare budget %d", spares)
	}
	return &Factory{inner: inner, spares: spares}, nil
}

// Name implements scheme.Factory.  It names the spare budget, which
// changes results, so shard keys of different budgets never collide.
func (f *Factory) Name() string {
	return fmt.Sprintf("FREE-p[%s+%d spares]", f.inner.Name(), f.spares)
}

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.inner.BlockBits() }

// OverheadBits implements scheme.Factory: the in-block scheme's bits.
// Spares are a page-level cost (see OverheadBits).
func (f *Factory) OverheadBits() int { return f.inner.OverheadBits() }

// New implements scheme.Factory with the in-block scheme alone: a block
// outside a page has no spares to redirect to.
func (f *Factory) New() scheme.Scheme { return f.inner.New() }

// NewPage implements sim.PageFactory.
func (f *Factory) NewPage() sim.Page { return &page{inner: f.inner, spares: f.spares} }

// page is the remapping state of one page: its in-block scheme and how
// many of its spares are in use.
type page struct {
	inner  scheme.Factory
	spares int
	used   int
}

// New implements sim.Page: the in-block scheme.
func (p *page) New() scheme.Scheme { return p.inner.New() }

// Spare implements sim.Page: it consumes a spare for the dead block,
// embedding the redirection pointer in it.  It reports false when no
// spare remains or the pointer cannot be stored.
func (p *page) Spare(dead *pcm.Block) bool {
	if p.used >= p.spares || !PointerStorable(dead) {
		return false
	}
	p.used++
	return true
}

// Spent implements sim.Page: the spares activated so far.
func (p *page) Spent() int { return p.used }

// PointerStorable reports whether the dead block has enough healthy
// cells to hold the redirection pointer with full redundancy — FREE-p's
// feasibility condition.  Blocks die with a few dozen stuck cells out of
// hundreds, so this essentially always holds; it is checked, not
// assumed.
func PointerStorable(blk *pcm.Block) bool {
	need := pointerRedundancy * (plane.CeilLog2(blk.Size()) + 1)
	return blk.Size()-blk.FaultCount() >= need
}

// OverheadBits returns the page-level cost of the spare provisioning:
// each spare is a full data block plus its scheme's overhead bits.
func OverheadBits(blockBits, schemeOverhead, spares int) int {
	return spares * (blockBits + schemeOverhead)
}
