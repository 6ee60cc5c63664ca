package sim

import (
	"sync"

	"aegis/internal/scheme"
	"aegis/internal/xrand"
)

// TrafficSum is the mergeable payload of the write-traffic probe: the
// growth of the scheme's OpStats over the injection steps blocks
// survived at one fault count, summed over trials.  Its JSON form is
// part of the aegis.shard/v1 format (internal/engine).
type TrafficSum struct {
	Requests     int64 `json:"requests"`
	RawWrites    int64 `json:"raw_writes"`
	VerifyReads  int64 `json:"verify_reads"`
	Repartitions int64 `json:"repartitions"`
}

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

// TrafficSums measures the write-path cost the paper discusses around
// Figure 8 ("intensive inversion writes"): blocks are loaded with a
// growing number of injected faults (the fault-injection kernel, with
// stuck values drawn as fair coins), and sums[nf] adds up the operation
// statistics of the writesPerStep random writes each surviving block
// made at nf faults.  Blocks that die stop contributing at higher fault
// counts, and schemes that are not scheme.OpReporters contribute
// nothing.  Sums from disjoint trial ranges of the same configuration
// add up to the sums of the combined range.
func TrafficSums(f scheme.Factory, cfg Config, maxFaults, writesPerStep int) []TrafficSum {
	sums := make([]TrafficSum, maxFaults+1)
	var mu sync.Mutex
	fair := func(rng *xrand.Rand) bool { return rng.Intn(2) == 0 }
	injectFaults(f, cfg, maxFaults, writesPerStep, fair, func(nf int, before, after scheme.OpStats) {
		mu.Lock()
		s := &sums[nf]
		s.Requests += after.Requests - before.Requests
		s.RawWrites += after.RawWrites - before.RawWrites
		s.VerifyReads += after.VerifyReads - before.VerifyReads
		s.Repartitions += after.Repartitions - before.Repartitions
		mu.Unlock()
	})
	return sums
}

// TrafficPoints averages traffic sums per request, one point per fault
// count 1…len(sums)−1.
func TrafficPoints(sums []TrafficSum) []TrafficPoint {
	out := make([]TrafficPoint, 0, len(sums))
	for nf := 1; nf < len(sums); nf++ {
		p := TrafficPoint{Faults: nf}
		if r := sums[nf].Requests; r > 0 {
			p.ExtraWrites = float64(sums[nf].RawWrites-r) / float64(r)
			p.VerifyReads = float64(sums[nf].VerifyReads) / float64(r)
			p.Repartitions = float64(sums[nf].Repartitions) / float64(r)
		}
		out = append(out, p)
	}
	return out
}
