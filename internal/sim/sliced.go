package sim

import (
	"aegis/internal/xrand"
	"math/bits"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/obs"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// This file is the bit-sliced execution mode of the Monte Carlo engine
// (DESIGN.md §13): up to 64 independent trials pack into the 64 bit
// lanes of each machine word and advance in lockstep against a
// pcm.LaneBlock.  Lane l of a group starting at run-local trial lo runs
// exactly the scalar trial lo+l — same per-trial RNG (derived from the
// global index cfg.TrialOffset+lo+l), same write outcomes, same
// counters and histograms — so slicing is invisible in the results, and
// composes with sharding, worker pools and resume for free.  The
// differential tests in sliced_test.go pin this byte-identity.

// laneGroups splits n trials into contiguous lane groups of at most
// `lanes` trials each.  The final group is clamped to the remaining
// trials (the splitTrials rule): a shard tail with fewer trials than
// lanes yields one small group rather than shifting any trial's lane
// assignment, so resume/shard boundaries never change results.
func laneGroups(n, lanes int) [][2]int {
	if n <= 0 {
		return nil
	}
	groups := make([][2]int, 0, (n+lanes-1)/lanes)
	for lo := 0; lo < n; lo += lanes {
		hi := lo + lanes
		if hi > n {
			hi = n
		}
		groups = append(groups, [2]int{lo, hi})
	}
	return groups
}

// slicePlan resolves cfg.Lanes against a factory into the lane groups
// of a bit-sliced run, or nil for the scalar path:
//
//	Lanes 0, 1  scalar (0 is the default);
//	Lanes >= 2  explicit width: every group sliced, including the
//	            clamped remainder group (capped at 64).
//
// The default is scalar because the sliced mode does not pay for
// itself (DESIGN.md §13): a 64-trial call packs into one lane group,
// which only one worker can run, where the scalar loop spreads the same
// trials over every worker.  Explicit widths still fall back to scalar
// when the factory is not sliced (SAFER/RDIS/FreeP/PAYG…), under the
// per-pulse wear ablation, or when event tracing is on (the trace
// stream's event order is a scalar-path notion).
func (c Config) slicePlan(f scheme.Factory) (scheme.SlicedFactory, [][2]int) {
	sf, ok := f.(scheme.SlicedFactory)
	if !ok || c.PulseWear || c.Trace != nil || c.Lanes <= 1 || c.Trials <= 0 {
		return nil, nil
	}
	return sf, laneGroups(c.Trials, min(c.Lanes, 64))
}

// laneMask returns the mask of the low n lanes.
func laneMask(n int) uint64 { return ^uint64(0) >> uint(64-n) }

// laneScratch is one worker goroutine's reusable arena for the sliced
// path, the lane-group analogue of trialScratch: sliced scheme
// instances, lane blocks, per-lane RNG states and the per-lane data
// buffers survive across the worker's groups, so steady-state groups
// allocate nothing.
type laneScratch struct {
	factory   scheme.SlicedFactory // owner of the schemes slice
	schemes   []scheme.SlicedScheme
	byFactory map[scheme.SlicedFactory][]scheme.SlicedScheme
	blocks    []*pcm.LaneBlock
	// rngs holds the 64 lanes' RNG states inline (~312 KB, amortized by
	// the arena pool): forEachLaneGroup reseeds each lane's state in
	// place, so a lane group performs zero RNG-source allocations where
	// it used to perform one per lane (DESIGN.md §17).
	rngs  [64]xrand.Rand
	lane  [64][]uint64 // per-lane random data words
	dataT []uint64     // transposed image: dataT[j] bit l = lane l's bit j
}

// laneScratchPool recycles worker arenas across runs.  A study like
// Fig. 5 re-enters the sliced path once per (scheme, point) pair, and a
// page group's lane blocks alone run to megabytes, so arenas are far
// too expensive to rebuild per call.  Blocks are revalidated by size in
// laneBlock and fully re-armed by Reset; scheme instances are only
// reused for the identical factory (all sliced factories are pointers
// or small comparable structs).
var laneScratchPool = sync.Pool{New: func() any { return new(laneScratch) }}

func (ls *laneScratch) sliced(f scheme.SlicedFactory, i int) scheme.SlicedScheme {
	if ls.factory != f {
		// A pooled arena may carry another factory's scheme instances;
		// handing one out would run the wrong scheme.  Shelve the slice
		// under its factory and pull f's — a roster study cycles the
		// same few factories through each arena, and scheme instances
		// hold warmed per-lane bookkeeping buffers worth keeping.
		if ls.byFactory == nil {
			ls.byFactory = make(map[scheme.SlicedFactory][]scheme.SlicedScheme)
		}
		if ls.factory != nil {
			ls.byFactory[ls.factory] = ls.schemes
		}
		ls.schemes = ls.byFactory[f]
		ls.factory = f
	}
	for len(ls.schemes) <= i {
		ls.schemes = append(ls.schemes, nil)
	}
	if s := ls.schemes[i]; s != nil {
		s.ResetSliced()
		return s
	}
	s := f.NewSliced()
	ls.schemes[i] = s
	return s
}

func (ls *laneScratch) laneBlock(n int, i int) *pcm.LaneBlock {
	for len(ls.blocks) <= i {
		ls.blocks = append(ls.blocks, nil)
	}
	if b := ls.blocks[i]; b != nil && b.Size() == n {
		return b
	}
	b := pcm.NewLaneBlock(n)
	ls.blocks[i] = b
	return b
}

// ensure sizes the data buffers for n-bit blocks and L lanes.
func (ls *laneScratch) ensure(n, L int) {
	w := (n + 63) / 64
	if len(ls.dataT) != n {
		ls.dataT = make([]uint64, n)
	}
	for l := 0; l < L; l++ {
		if len(ls.lane[l]) != w {
			ls.lane[l] = make([]uint64, w)
		}
	}
}

// fillData draws one block's worth of fresh random data for every lane
// in mask — consuming each lane's RNG exactly as the scalar loop's
// bitvec.RandomInto does — and transposes the group into dataT.  Lanes outside the mask
// contribute stale bits that every downstream broadcast op masks out.
func (ls *laneScratch) fillData(mask uint64, n, L int) {
	w := (n + 63) / 64
	tail := n % 64
	for m := mask; m != 0; {
		l := bits.TrailingZeros64(m)
		m &= m - 1
		buf := ls.lane[l]
		ls.rngs[l].Fill(buf)
		if tail != 0 {
			buf[w-1] &= uint64(1)<<uint(tail) - 1
		}
	}
	for c := 0; c < w; c++ {
		base := c * 64
		if base+64 <= n {
			// Full chunk: gather the lanes' column words straight into
			// dataT and transpose there, skipping the staging copy.
			tile := (*[64]uint64)(ls.dataT[base : base+64])
			for l := 0; l < L; l++ {
				tile[l] = ls.lane[l][c]
			}
			for l := L; l < 64; l++ {
				tile[l] = 0
			}
			bitvec.Transpose64(tile)
			continue
		}
		var tile [64]uint64
		for l := 0; l < L; l++ {
			tile[l] = ls.lane[l][c]
		}
		bitvec.Transpose64(&tile)
		copy(ls.dataT[base:n], tile[:n-base])
	}
}

// forEachLaneGroup fans lane groups out over a worker pool, mirroring
// forEachTrial: the study's trial count is registered with
// cfg.Progress up front (per-trial Done ticks happen at lane
// retirement), groups are claimed in order, and cancellation skips
// groups not yet started.
func forEachLaneGroup(cfg Config, groups [][2]int, body func(g [2]int, ls *laneScratch)) {
	cfg.Progress.AddTotal(cfg.Trials)
	run := func(gi int, ls *laneScratch) {
		if cfg.cancelled() {
			return
		}
		body(groups[gi], ls)
	}
	workers := cfg.workers()
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		ls := laneScratchPool.Get().(*laneScratch)
		defer laneScratchPool.Put(ls)
		for gi := range groups {
			if cfg.cancelled() {
				return
			}
			run(gi, ls)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls := laneScratchPool.Get().(*laneScratch)
			defer laneScratchPool.Put(ls)
			for gi := range next {
				run(gi, ls)
			}
		}()
	}
	for gi := range groups {
		if cfg.cancelled() {
			break
		}
		next <- gi
	}
	close(next)
	wg.Wait()
}

// drainLaneOps adds one lane's lifetime operation statistics into the
// registry counters, the per-lane twin of drain.
func drainLaneOps(sc *obs.SchemeCounters, rep scheme.LaneOpReporter, lane int) {
	st := rep.LaneOpStats(lane)
	sc.Writes.Add(st.Requests)
	sc.RawWrites.Add(st.RawWrites)
	sc.VerifyReads.Add(st.VerifyReads)
	sc.Inversions.Add(st.Inversions)
	sc.Repartitions.Add(st.Repartitions)
	sc.Salvages.Add(st.Salvages)
}

// drainLaneHists records one lane's per-block distributions, the
// per-lane twin of drain.
func drainLaneHists(h *obs.SchemeHistograms, rep scheme.LaneOpReporter, lane int) {
	st := rep.LaneOpStats(lane)
	h.Repartitions.Observe(st.Repartitions)
	h.ExtraWrites.Observe(st.RawWrites - st.Requests)
}

// observeSalvages wires a sliced scheme's per-request salvage depths
// into the histogram the scalar path feeds through trace events.
func observeSalvages(s scheme.SlicedScheme, h *obs.SchemeHistograms) {
	if h == nil {
		return
	}
	so, ok := s.(scheme.SalvageObservable)
	if !ok {
		return
	}
	so.SetSalvageObserver(func(lane, passes int) {
		h.SalvageDepth.Observe(int64(passes))
	})
}

// blocksSliced runs the lane groups of a Blocks study; results indices
// are run-local trial indices, exactly as the scalar loop fills them.
func blocksSliced(f scheme.SlicedFactory, cfg Config, groups [][2]int, results []BlockResult) {
	sc, h := cfg.sinks(f)
	life := cfg.lifetime()
	forEachLaneGroup(cfg, groups, func(g [2]int, ls *laneScratch) {
		lo, L := g[0], g[1]-g[0]
		ls.ensure(cfg.BlockBits, L)
		for l := 0; l < L; l++ {
			ls.rngs[l].Seed(trialSeed(cfg.Seed, cfg.TrialOffset+lo+l))
		}
		blk := ls.laneBlock(cfg.BlockBits, 0)
		blk.Reset(life, ls.rngs[:L])
		s := ls.sliced(f, 0)
		observeSalvages(s, h)
		rep, _ := s.(scheme.LaneOpReporter)
		finish := func(l int, lifetime int64, died bool) {
			st := blk.Stats(l)
			results[lo+l] = BlockResult{
				Lifetime:      lifetime,
				FaultsAtDeath: blk.FaultCount(l),
				BitWrites:     st.BitWrites,
			}
			if sc != nil {
				if rep != nil {
					drainLaneOps(sc, rep, l)
				}
				sc.BitWrites.Add(st.BitWrites)
				if died {
					sc.BlockDeaths.Inc()
				}
			}
			if h != nil {
				h.Lifetime.Observe(lifetime)
				if rep != nil {
					drainLaneHists(h, rep, l)
				}
			}
			blk.Retire(l)
			cfg.Progress.Done(1)
		}
		active := laneMask(L)
		var round int64
		for active != 0 && (cfg.MaxWrites == 0 || round < cfg.MaxWrites) {
			ls.fillData(active, cfg.BlockBits, L)
			blk.BeginRequest()
			died := s.WriteSliced(blk, ls.dataT, active)
			blk.EndRequest()
			for w := died & active; w != 0; {
				l := bits.TrailingZeros64(w)
				w &= w - 1
				finish(l, round, true)
			}
			active &^= died
			round++
		}
		for w := active; w != 0; {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			finish(l, round, false)
		}
	})
}

// pagesSliced runs the lane groups of a Pages study.  A lane that dies
// at block i of a page-write round is masked out of the round's
// remaining blocks (the scalar loop breaks there) and retires.
func pagesSliced(f scheme.SlicedFactory, cfg Config, groups [][2]int, results []PageResult) {
	sc, h := cfg.sinks(f)
	life := cfg.lifetime()
	nBlocks := cfg.BlocksPerPage()
	forEachLaneGroup(cfg, groups, func(g [2]int, ls *laneScratch) {
		lo, L := g[0], g[1]-g[0]
		ls.ensure(cfg.BlockBits, L)
		for l := 0; l < L; l++ {
			ls.rngs[l].Seed(trialSeed(cfg.Seed, cfg.TrialOffset+lo+l))
		}
		// Lifetimes sample in block order per lane, matching the scalar
		// trial's construction order.
		for i := 0; i < nBlocks; i++ {
			ls.laneBlock(cfg.BlockBits, i).Reset(life, ls.rngs[:L])
		}
		blocks := ls.blocks[:nBlocks]
		reps := make([]scheme.LaneOpReporter, nBlocks)
		for i := 0; i < nBlocks; i++ {
			s := ls.sliced(f, i)
			observeSalvages(s, h)
			reps[i], _ = s.(scheme.LaneOpReporter)
		}
		schemes := ls.schemes[:nBlocks]
		finish := func(l int, lifetime int64, died bool) {
			faults := 0
			for i := range blocks {
				faults += blocks[i].FaultCount(l)
			}
			results[lo+l] = PageResult{Lifetime: lifetime, RecoveredFaults: faults}
			if sc != nil {
				for i := range reps {
					if reps[i] != nil {
						drainLaneOps(sc, reps[i], l)
					}
				}
				for i := range blocks {
					sc.BitWrites.Add(blocks[i].Stats(l).BitWrites)
				}
				if died {
					// The page died with its first unrecoverable block.
					sc.BlockDeaths.Inc()
					sc.PageDeaths.Inc()
				}
			}
			if h != nil {
				h.Lifetime.Observe(lifetime)
				for i := range reps {
					if reps[i] != nil {
						drainLaneHists(h, reps[i], l)
					}
				}
			}
			for i := range blocks {
				blocks[i].Retire(l)
			}
			cfg.Progress.Done(1)
		}
		active := laneMask(L)
		var round int64
		for active != 0 && (cfg.MaxWrites == 0 || round < cfg.MaxWrites) {
			roundActive := active
			for i := 0; i < nBlocks && roundActive != 0; i++ {
				ls.fillData(roundActive, cfg.BlockBits, L)
				b := blocks[i]
				b.BeginRequest()
				died := schemes[i].WriteSliced(b, ls.dataT, roundActive)
				b.EndRequest()
				if died != 0 {
					for w := died; w != 0; {
						l := bits.TrailingZeros64(w)
						w &= w - 1
						finish(l, round, true)
					}
					roundActive &^= died
					active &^= died
				}
			}
			round++
		}
		for w := active; w != 0; {
			l := bits.TrailingZeros64(w)
			w &= w - 1
			finish(l, round, false)
		}
	})
}
