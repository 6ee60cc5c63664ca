// Package device is the end-to-end integration of every substrate in
// this repository: a PCM device whose pages hold scheme-protected data
// blocks, fed by a workload address stream through a wear leveler, with
// the OS layer retiring failed pages and optionally pairing them.
//
// The paper's evaluation decomposes this stack and studies each layer
// under idealized neighbors (perfect wear leveling, no OS layer);
// package device lets the layers meet: skewed traffic wears real blocks,
// blocks die under their real recovery schemes, the OS redirects traffic
// away from dead pages, and Dynamic Pairing stitches failed pages back
// into service block-by-block.
package device

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/osmem"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/wearlevel"
	"aegis/internal/workload"
	"aegis/internal/xrand"
)

// Config assembles a device.
type Config struct {
	// Pages is the physical page count.
	Pages int
	// PageBytes is the page size (4096 in the paper).
	PageBytes int
	// BlockBits is the data-block size protected by Scheme.
	BlockBits int
	// MeanLife and CoV parameterize per-cell endurance.
	MeanLife float64
	CoV      float64
	// Scheme builds the per-block recovery scheme.
	Scheme scheme.Factory
	// Leveler maps logical page addresses to physical pages; nil means
	// the identity (no leveling).  Its Lines() must equal Pages.
	Leveler wearlevel.Leveler
	// Workload generates logical page addresses; its Size() must equal
	// Pages.
	Workload workload.Generator
	// Pairing enables Dynamic Pairing of retired pages.
	Pairing bool
	// Seed makes the run reproducible.
	Seed int64
}

// Stats accumulates device-level counters.
type Stats struct {
	// LogicalWrites is the number of workload page writes issued.
	LogicalWrites int64
	// Redirected counts writes whose target page was unusable and were
	// served by another live unit.
	Redirected int64
	// PairServed counts page writes served by a page pair.
	PairServed int64
	// MigrationWrites counts page copies the wear leveler performed.
	MigrationWrites int64
}

// Device is a running simulated PCM device.
type Device struct {
	cfg           Config
	blocksPerPage int

	blocks  [][]*pcm.Block
	schemes [][]scheme.Scheme
	pool    *osmem.Pool
	rng     *xrand.Rand
	data    *bitvec.Vector
	stats   Stats
}

// New builds the device with freshly sampled cell lifetimes.
func New(cfg Config) (*Device, error) {
	if cfg.Pages <= 0 || cfg.PageBytes <= 0 || cfg.BlockBits <= 0 {
		return nil, fmt.Errorf("device: bad geometry %+v", cfg)
	}
	if cfg.PageBytes*8%cfg.BlockBits != 0 {
		return nil, fmt.Errorf("device: %d-bit blocks do not tile %d-byte pages", cfg.BlockBits, cfg.PageBytes)
	}
	if cfg.Scheme == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("device: scheme and workload are required")
	}
	if cfg.Workload.Size() != cfg.Pages {
		return nil, fmt.Errorf("device: workload covers %d pages, device has %d", cfg.Workload.Size(), cfg.Pages)
	}
	if cfg.Leveler != nil && cfg.Leveler.Lines() != cfg.Pages {
		return nil, fmt.Errorf("device: leveler covers %d lines, device has %d pages", cfg.Leveler.Lines(), cfg.Pages)
	}
	d := &Device{
		cfg:           cfg,
		blocksPerPage: cfg.PageBytes * 8 / cfg.BlockBits,
		rng:           xrand.New(cfg.Seed),
	}
	nPhys := cfg.Pages
	if cfg.Leveler != nil {
		nPhys = cfg.Leveler.Slots()
	}
	ld := dist.Normal{MeanLife: cfg.MeanLife, CoV: cfg.CoV}
	d.blocks = make([][]*pcm.Block, nPhys)
	d.schemes = make([][]scheme.Scheme, nPhys)
	for pg := range d.blocks {
		d.blocks[pg] = make([]*pcm.Block, d.blocksPerPage)
		d.schemes[pg] = make([]scheme.Scheme, d.blocksPerPage)
		for b := range d.blocks[pg] {
			d.blocks[pg][b] = pcm.NewBlock(cfg.BlockBits, ld, d.rng)
			d.schemes[pg][b] = cfg.Scheme.New()
		}
	}
	pool, err := osmem.NewPool(nPhys, d.blocksPerPage, cfg.Pairing)
	if err != nil {
		return nil, err
	}
	d.pool = pool
	d.data = bitvec.New(cfg.BlockBits)
	return d, nil
}

// Stats returns the device counters so far.
func (d *Device) Stats() Stats { return d.stats }

// Capacity returns the OS pool view of the device.
func (d *Device) Capacity() osmem.Capacity { return d.pool.Capacity() }

// UsableFraction returns usable logical pages over total physical pages.
func (d *Device) UsableFraction() float64 {
	return float64(d.pool.Capacity().Usable()) / float64(len(d.blocks))
}

// TotalFaults returns the stuck-cell count across the device.
func (d *Device) TotalFaults() int {
	total := 0
	for _, pgs := range d.blocks {
		for _, b := range pgs {
			total += b.FaultCount()
		}
	}
	return total
}

// writeBlock performs one scheme write under request-scoped wear,
// reporting whether the block survived.
func (d *Device) writeBlock(pg, b int) bool {
	bitvec.RandomInto(d.data, d.rng)
	if err := sim.WriteRequest(d.schemes[pg][b], d.blocks[pg][b], d.data); err != nil {
		d.pool.FailBlock(pg, b)
		return false
	}
	return true
}

// writeUnit writes a full page of data to the usable unit anchored at
// physical page pg: a healthy page directly, a paired page by steering
// each block offset to whichever member still has a live block there.
func (d *Device) writeUnit(pg int) {
	partner := d.pool.Partner(pg)
	if partner >= 0 {
		d.stats.PairServed++
	}
	for b := 0; b < d.blocksPerPage; b++ {
		target := pg
		if deadAt(d.pool, pg, b) {
			if partner < 0 || deadAt(d.pool, partner, b) {
				continue // offset unusable in this unit; skip
			}
			target = partner
		}
		if !d.writeBlock(target, b) {
			// A block died during this write; if the unit broke, the
			// remaining offsets of this request still go to whichever
			// member can serve them (recomputed below).
			partner = d.pool.Partner(pg)
		}
	}
}

func deadAt(pool *osmem.Pool, pg, b int) bool {
	for _, db := range pool.DeadBlocks(pg) {
		if db == b {
			return true
		}
	}
	return false
}

// usable reports whether physical page pg anchors a usable unit: it is
// healthy, or it is the lower-numbered member of a pair.
func (d *Device) usable(pg int) bool {
	switch d.pool.State(pg) {
	case osmem.Healthy:
		return true
	case osmem.Paired:
		return d.pool.Partner(pg) > pg
	default:
		return false
	}
}

// Step issues one logical page write: the workload picks a logical
// address, the wear leveler maps it to a physical page (charging its
// migration writes), and the OS redirects to the next usable unit if
// the target is not usable.  It reports false when no usable unit
// remains.
func (d *Device) Step() bool {
	d.stats.LogicalWrites++
	logical := d.cfg.Workload.Next(d.rng)
	phys := logical
	if d.cfg.Leveler != nil {
		var migrations []int
		phys, migrations = d.cfg.Leveler.OnWrite(logical)
		for _, m := range migrations {
			d.stats.MigrationWrites++
			// A migration rewrites the destination page's blocks.
			if d.usable(m) || d.pool.State(m) == osmem.Paired {
				for b := 0; b < d.blocksPerPage; b++ {
					if !deadAt(d.pool, m, b) {
						d.writeBlock(m, b)
					}
				}
			}
		}
	}
	// OS redirection: scan forward for a usable unit.
	n := len(d.blocks)
	for off := 0; off < n; off++ {
		pg := (phys + off) % n
		if d.usable(pg) {
			if off != 0 {
				d.stats.Redirected++
			}
			d.writeUnit(pg)
			return true
		}
	}
	return false
}

// Run issues page writes until the usable capacity falls below
// stopFraction of the physical pages (or nothing is usable), returning
// the number of logical writes issued.
func (d *Device) Run(stopFraction float64) int64 {
	for d.UsableFraction() > stopFraction {
		if !d.Step() {
			break
		}
	}
	return d.stats.LogicalWrites
}
