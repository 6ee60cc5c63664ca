package sim

import (
	"aegis/internal/xrand"
	"sync"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/scheme"
)

// TrafficPoint reports a scheme's average controller costs per write
// request at one fault count.
type TrafficPoint struct {
	Faults int
	// ExtraWrites is the mean number of physical block writes beyond
	// the first one per request (inversion rewrites during discovery).
	ExtraWrites float64
	// VerifyReads is the mean number of verification reads per request.
	VerifyReads float64
	// Repartitions is the mean number of configuration changes per
	// request.
	Repartitions float64
}

// TrafficCurve measures the write-path cost the paper discusses around
// Figure 8 ("intensive inversion writes"): blocks are loaded with a
// growing number of injected faults, and at each fault count the
// per-request operation statistics are averaged over writesPerStep
// random writes across cfg.Trials blocks.  The scheme must implement
// scheme.OpReporter; blocks that die stop contributing at higher fault
// counts.
func TrafficCurve(f scheme.Factory, cfg Config, maxFaults, writesPerStep int) []TrafficPoint {
	type acc struct {
		requests, raws, verifies, reparts int64
	}
	sums := make([]acc, maxFaults+1)
	var mu sync.Mutex
	forEachTrial(cfg, func(trial int, rng *xrand.Rand, ts *trialScratch) {
		blk := ts.block(cfg.BlockBits, dist.Immortal{}, nil, 0)
		s := ts.scheme(f, 0)
		rep, ok := s.(scheme.OpReporter)
		if !ok {
			return
		}
		data := ts.dataVec(cfg.BlockBits)
		positions := rng.Perm(cfg.BlockBits)
		local := make([]acc, 0, maxFaults)
		for nf := 1; nf <= maxFaults && nf <= len(positions); nf++ {
			blk.InjectFault(positions[nf-1], rng.Intn(2) == 0)
			before := rep.OpStats()
			dead := false
			for w := 0; w < writesPerStep; w++ {
				bitvec.RandomInto(data, rng)
				if err := writeRequest(cfg, s, blk, data); err != nil {
					dead = true
					break
				}
			}
			if dead {
				break
			}
			after := rep.OpStats()
			local = append(local, acc{
				requests: after.Requests - before.Requests,
				raws:     after.RawWrites - before.RawWrites,
				verifies: after.VerifyReads - before.VerifyReads,
				reparts:  after.Repartitions - before.Repartitions,
			})
		}
		mu.Lock()
		for i, a := range local {
			sums[i+1].requests += a.requests
			sums[i+1].raws += a.raws
			sums[i+1].verifies += a.verifies
			sums[i+1].reparts += a.reparts
		}
		mu.Unlock()
	})
	out := make([]TrafficPoint, 0, maxFaults)
	for nf := 1; nf <= maxFaults; nf++ {
		p := TrafficPoint{Faults: nf}
		if r := sums[nf].requests; r > 0 {
			p.ExtraWrites = float64(sums[nf].raws-r) / float64(r)
			p.VerifyReads = float64(sums[nf].verifies) / float64(r)
			p.Repartitions = float64(sums[nf].reparts) / float64(r)
		}
		out = append(out, p)
	}
	return out
}
