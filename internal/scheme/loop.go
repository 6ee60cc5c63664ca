package scheme

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
)

// Planner is one scheme's decision inside the write–verify–retry
// protocol Loop drives: how to partition the block around the faults
// the controller knows about, and what physical image that yields.
// Aegis, Aegis-rw(-p), SAFER(-cache) and RDIS differ only here.
type Planner interface {
	// Plan chooses the configuration for the data being written.
	// faults are the stuck cells the controller knows; wrong[i] reports
	// whether faults[i]'s stuck value disagrees with the datum at its
	// position.  Plan reports configuration changes through
	// Loop.Repartition and returns the death cause when no
	// configuration masks the faults, "" otherwise.
	Plan(faults []failcache.Fault, wrong []bool) (cause string)
	// Encode writes the physical image of data under the current
	// configuration into phys and reports whether any cell of it is
	// stored inverted.
	Encode(data, phys *bitvec.Vector) (inverted bool)
	// InvertedGroups is the inverted-group count of the last encoded
	// image (inverted cells for RDIS), the Groups field of its
	// inversion event.  Only traced writes ask for it.
	InvertedGroups() int
}

// Loop is the write–verify–retry protocol of the iterative schemes
// (DESIGN.md §5a): write, verify-read, plan around the stuck-at-Wrong
// cells, rewrite, until a verification read comes back clean.  A scheme
// embeds it for the pass budget, the OpStats counters, the salvage,
// stuck-verify and iteration-limit events, tracer plumbing and fault
// bookkeeping, and supplies only its Planner.
//
// Faults come from one of two sources.  Without a fail-cache view (the
// discovery family: Aegis, SAFER) the controller knows only what this
// request's verification reads revealed, and the first pass reuses the
// configuration of the previous write.  With a view (the cache family:
// SAFER-cache, Aegis-rw, Aegis-rw-p, RDIS) every pass plans over the
// cached faults plus those this request revealed, which a finite cache
// may have evicted.
type Loop struct {
	ops OpStats
	tr  Tracer

	// view is the fail cache of the cache family, nil for discovery.
	// BindCache sets cache and ids so Reset can draw a fresh view.
	view  failcache.View
	cache failcache.Provider
	ids   *atomic.Uint64

	phys, errs *bitvec.Vector
	// local holds the faults verification revealed during this
	// request.  With a finite cache it keeps two slot-colliding faults
	// from evicting each other between passes forever.
	local  []failcache.Fault
	faults []failcache.Fault // view plus local, per pass
	wrong  []bool
}

// NewLoop returns the protocol state for n-bit blocks.  view is the
// block's fail-cache window; nil selects fault discovery.
func NewLoop(n int, view failcache.View) Loop {
	return Loop{view: view, phys: bitvec.New(n), errs: bitvec.New(n)}
}

// BindCache gives the loop a view of cache under the next block ID
// drawn from ids, and makes every Reset draw a fresh one — so a reused
// instance sees the cache exactly as a newly built one would.
// Factories call it on each instance they build.
func (l *Loop) BindCache(cache failcache.Provider, ids *atomic.Uint64) {
	l.cache, l.ids = cache, ids
	l.view = cache.View(ids.Add(1) - 1)
}

// OpStats implements OpReporter.
func (l *Loop) OpStats() OpStats { return l.ops }

// SetTracer implements Traceable.
func (l *Loop) SetTracer(t Tracer) { l.tr = t }

// Reset zeroes the counters, detaches the tracer and, after BindCache,
// draws a fresh fail-cache view.  Schemes call it from their own Reset.
func (l *Loop) Reset() {
	if l.ids != nil {
		l.view = l.cache.View(l.ids.Add(1) - 1)
	}
	l.ops = OpStats{}
	l.tr = nil
}

// Repartition counts a configuration change and traces it; faults is
// the known stuck-cell count the change was planned over.
func (l *Loop) Repartition(from, to, faults int) {
	l.ops.Repartitions++
	l.trace(TraceEvent{Kind: TraceRepartition, From: from, To: to, Faults: faults})
}

// Die traces a block death with the fault count of the last request
// and returns ErrUnrecoverable, for schemes that reject a write the
// loop completed.
func (l *Loop) Die(cause string) error { return l.die(cause, len(l.local)) }

func (l *Loop) die(cause string, faults int) error {
	l.trace(TraceEvent{Kind: TraceDeath, Faults: faults, Cause: cause})
	return ErrUnrecoverable
}

func (l *Loop) trace(e TraceEvent) {
	if l.tr != nil {
		l.tr.TraceEvent(e)
	}
}

// Run stores data into blk under p's decisions: the Write of every
// scheme that embeds the loop.
func (l *Loop) Run(p Planner, blk *pcm.Block, data *bitvec.Vector) error {
	n := l.phys.Len()
	if data.Len() != n {
		panic(fmt.Sprintf("scheme: write of %d bits into a %d-bit scheme", data.Len(), n))
	}
	l.ops.Requests++
	l.local = l.local[:0]
	// A failed pass of the discovery family reveals at least one new
	// fault, so it needs at most N+1 passes.  The cache family gets the
	// same budget: a pass fails only on a fault the cache missed or a
	// cell that died during this request.
	for pass := 0; pass <= n; pass++ {
		faults := l.known(blk)
		if pass > 0 || l.view != nil {
			l.wrong = l.wrong[:0]
			for _, f := range faults {
				l.wrong = append(l.wrong, f.Val != data.Get(f.Pos))
			}
			if cause := p.Plan(faults, l.wrong); cause != "" {
				return l.die(cause, len(faults))
			}
		}
		if p.Encode(data, l.phys) {
			l.ops.Inversions++
			if l.tr != nil {
				l.tr.TraceEvent(TraceEvent{Kind: TraceInversion, Groups: p.InvertedGroups(), Faults: len(faults)})
			}
		}
		blk.WriteRaw(l.phys)
		l.ops.RawWrites++
		blk.Verify(l.phys, l.errs)
		l.ops.VerifyReads++
		if !l.errs.Any() {
			if pass > 0 {
				l.ops.Salvages++
				l.trace(TraceEvent{Kind: TraceSalvage, Passes: pass + 1, Faults: len(faults)})
			}
			return nil
		}
		if !l.record() && l.view == nil {
			// A planned configuration masks every known fault, so this
			// cannot happen; die rather than loop.
			return l.die(CauseStuckVerify, len(l.local))
		}
	}
	return l.die(CauseIterationLimit, len(l.local))
}

// known returns the faults the next pass plans over.
func (l *Loop) known(blk *pcm.Block) []failcache.Fault {
	if l.view == nil {
		return l.local
	}
	l.faults = l.view.AppendKnown(blk, l.faults[:0])
	for _, f := range l.local {
		if !hasFault(l.faults, f.Pos) {
			l.faults = append(l.faults, f)
		}
	}
	return l.faults
}

// record adds the cells the last verification read flagged to the
// request's faults and the fail cache, and reports whether any was new
// to the request.  Every mismatch is a stuck-at-Wrong cell for the
// intended image, so its stuck value is the complement of what was
// written.
func (l *Loop) record() (grew bool) {
	for wi, w := range l.errs.Words() {
		for ; w != 0; w &= w - 1 {
			p := wi*64 + bits.TrailingZeros64(w)
			f := failcache.Fault{Pos: p, Val: !l.phys.Get(p)}
			if l.view != nil {
				l.view.Record(f)
			}
			if !hasFault(l.local, p) {
				l.local = append(l.local, f)
				grew = true
			}
		}
	}
	return grew
}

// hasFault reports whether faults holds one at position p.  Cached
// entries win over rediscovered ones; stuck values never change, so the
// two agree anyway.
func hasFault(faults []failcache.Fault, p int) bool {
	for _, f := range faults {
		if f.Pos == p {
			return true
		}
	}
	return false
}
