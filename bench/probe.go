package main

import (
	"fmt"
	"os"
	"time"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
	"aegis/internal/engine"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/xrand"
)

// probeTrial is one scalar trial the probe replays through the public
// calls of pcm and scheme, the way the sim loops drive them.
type probeTrial struct {
	f         scheme.Factory
	kind      string // "blocks", "pages" or "curve"
	pageBytes int
	meanLife  float64
	seed      int64
}

// probeKey identifies a unit cost: one scheme configuration in one kind
// of run.
type probeKey struct {
	name string
	bits int
	kind string
}

func (t probeTrial) key() probeKey { return probeKey{t.f.Name(), t.f.BlockBits(), t.kind} }

// probeCost aggregates timed scheme writes: request count, total time in
// Begin/Write/End, and the physical writes and verify reads they issued.
type probeCost struct {
	requests, ns, raw, verify int64
}

func (c probeCost) perWrite() float64 { return float64(c.ns) / float64(c.requests) }

// probeResult is the per-call cost of each layer below sim.
type probeResult struct {
	fillNs, seedNs                  float64
	pcmWriteNs, pcmVerifyNs, resetN float64
	costs                           map[probeKey]*probeCost
	loadMs, writeMs                 []float64
}

// The probe's sample sizes: enough calls that the per-call means repeat
// to a few percent, few enough that the probe takes about a second.
const (
	probeFills  = 200000
	probeSeeds  = 4000
	probePCM    = 40000
	probeResets = 2000
	probeMaxReq = 2000000
)

// timerCost is the cost of one time.Now/time.Since pair, subtracted from
// every individually timed call.
func timerCost() time.Duration {
	const n = 100000
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t)
	}
	return total / n
}

// runProbe measures unit costs after a traced phase.  Trials are scalar:
// the probe cannot see the bit-sliced path, which is what the
// attribution remainder on fig5-pages shows.
func runProbe(trials []probeTrial, shards []*engine.Shard, dir string) (*probeResult, error) {
	p := &probeResult{costs: make(map[probeKey]*probeCost)}
	tc := timerCost()
	rng := xrand.New(1)

	words := make([]uint64, 8)
	t := time.Now()
	for i := 0; i < probeFills; i++ {
		rng.Fill(words)
	}
	p.fillNs = float64(time.Since(t)) / probeFills
	t = time.Now()
	for i := 0; i < probeSeeds; i++ {
		rng.Seed(int64(i))
	}
	p.seedNs = float64(time.Since(t)) / probeSeeds

	// The pcm probe uses the cell model of the workload's first trial:
	// fault-injection workloads write immortal blocks.
	p.probePCM(trials[0].meanLife, trials[0].kind == "curve", rng, tc)

	for _, tr := range trials {
		c := p.costs[tr.key()]
		if c == nil {
			c = &probeCost{}
			p.costs[tr.key()] = c
		}
		probeScheme(tr, c, tc)
	}

	for _, s := range shards {
		t := time.Now()
		path, err := engine.WriteShard(dir, s)
		if err != nil {
			return nil, fmt.Errorf("probe write shard: %w", err)
		}
		p.writeMs = append(p.writeMs, float64(time.Since(t))/float64(time.Millisecond))
		t = time.Now()
		if _, err := engine.LoadShard(path, s.Key, s.ConfigHash, s.Scheme, s.Kind, s.TrialLo, s.TrialHi); err != nil {
			return nil, fmt.Errorf("probe load shard: %w", err)
		}
		p.loadMs = append(p.loadMs, float64(time.Since(t))/float64(time.Millisecond))
	}
	return p, os.RemoveAll(dir)
}

// probePCM times one request-scoped physical write, one verify read and
// one lifetime reset of a 512-bit block of the workload's cell model.
func (p *probeResult) probePCM(meanLife float64, immortal bool, rng *xrand.Rand, tc time.Duration) {
	var life dist.Lifetime = dist.Normal{MeanLife: meanLife, CoV: 0.25}
	if immortal {
		life = dist.Immortal{}
	}
	blk := pcm.NewBlock(512, life, rng)
	data := bitvec.New(512)
	var buf *bitvec.Vector
	var write, verify, reset time.Duration
	for i := 0; i < probePCM; i++ {
		if i%(probePCM/probeResets) == 0 {
			t := time.Now()
			blk.Reset(life, rng)
			reset += time.Since(t) - tc
		}
		rng.Fill(data.Words())
		t := time.Now()
		blk.BeginRequest()
		blk.WriteRaw(data)
		blk.EndRequest()
		write += time.Since(t) - tc
		t = time.Now()
		buf = blk.Verify(data, buf)
		verify += time.Since(t) - tc
	}
	p.pcmWriteNs = float64(write) / probePCM
	p.pcmVerifyNs = float64(verify) / probePCM
	p.resetN = float64(reset) / probeResets
}

// probeScheme replays one trial of tr, timing each scheme write.
func probeScheme(tr probeTrial, c *probeCost, tc time.Duration) {
	rng := xrand.New(tr.seed)
	bits := tr.f.BlockBits()
	data := bitvec.New(bits)
	life := dist.Normal{MeanLife: tr.meanLife, CoV: 0.25}
	write := func(s scheme.Scheme, blk *pcm.Block) error {
		rng.Fill(data.Words())
		t := time.Now()
		blk.BeginRequest()
		err := s.Write(blk, data)
		blk.EndRequest()
		c.ns += int64(time.Since(t) - tc)
		c.requests++
		return err
	}
	var schemes []scheme.Scheme
	switch tr.kind {
	case "blocks":
		blk, s := pcm.NewBlock(bits, life, rng), tr.f.New()
		schemes = append(schemes, s)
		for c.requests < probeMaxReq && write(s, blk) == nil {
		}
	case "pages":
		n := tr.pageBytes * 8 / bits
		blks := make([]*pcm.Block, n)
		for i := range blks {
			blks[i] = pcm.NewBlock(bits, life, rng)
			schemes = append(schemes, tr.f.New())
		}
	page:
		for c.requests < probeMaxReq {
			for i, blk := range blks {
				if write(schemes[i], blk) != nil {
					break page
				}
			}
		}
	case "curve":
		blk, s := pcm.NewImmortalBlock(bits), tr.f.New()
		schemes = append(schemes, s)
		positions := rng.Perm(bits)
	inject:
		for nf := 1; nf <= fig8MaxFaults; nf++ {
			blk.InjectFault(positions[nf-1], rng.Float64() < fig8Bias)
			for w := 0; w < fig8WritesPerStep; w++ {
				if write(s, blk) != nil {
					break inject
				}
			}
		}
	}
	for _, s := range schemes {
		if rep, ok := s.(scheme.OpReporter); ok {
			st := rep.OpStats()
			c.raw += st.RawWrites
			c.verify += st.VerifyReads
		}
	}
}

// familyCost averages the probe's per-write cost over one scheme family,
// weighted by requests, and splits off the pcm share: raw writes and
// verify reads per request times their unit costs.
func (p *probeResult) familyCost(fam string) (writeNs, selfNs float64) {
	var sum probeCost
	for k, c := range p.costs {
		if family(k.name) == fam {
			sum.requests += c.requests
			sum.ns += c.ns
			sum.raw += c.raw
			sum.verify += c.verify
		}
	}
	if sum.requests == 0 {
		return 0, 0
	}
	writeNs = sum.perWrite()
	pcmNs := (float64(sum.raw)*p.pcmWriteNs + float64(sum.verify)*p.pcmVerifyNs) / float64(sum.requests)
	return writeNs, writeNs - pcmNs
}
