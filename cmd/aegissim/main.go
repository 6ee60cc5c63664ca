// Command aegissim runs the end-to-end PCM device simulation: a workload
// address stream flows through a wear leveler onto pages of
// scheme-protected data blocks, while the OS retires failed pages and
// (optionally) pairs compatible ones.  It prints a capacity-decay trace
// and the final counters.
//
// Usage:
//
//	aegissim -scheme aegis:61 -workload zipf -leveler start-gap-rand
//	aegissim -scheme safer:64 -workload hotspot -pairing=false
//	aegissim -list
//
// Schemes take the spec grammar aegisd's jobs use (aegis:B, aegis-rw:B,
// safer:GROUPS, ecp:ENTRIES, rdis:DEPTH, hamming, …; -list prints it).
// Workloads: uniform, sequential, zipf, hotspot.  Levelers: none,
// start-gap, start-gap-rand, security-refresh.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aegis/internal/device"
	"aegis/internal/experiments"
	"aegis/internal/wearlevel"
	"aegis/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aegissim:", err)
		os.Exit(1)
	}
}

func parseWorkload(spec string, pages int, seed int64) (workload.Generator, error) {
	switch spec {
	case "uniform":
		return workload.Uniform{N: pages}, nil
	case "sequential":
		return &workload.Sequential{N: pages}, nil
	case "zipf":
		return workload.NewZipf(pages, 1.2, seed)
	case "hotspot":
		return workload.NewHotSpot(pages, 0.9, 0.1, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", spec)
	}
}

func parseLeveler(spec string, pages, psi int, seed int64) (wearlevel.Leveler, error) {
	switch spec {
	case "none":
		return nil, nil
	case "start-gap":
		return wearlevel.NewStartGap(pages, psi)
	case "start-gap-rand":
		return wearlevel.NewRandomizedStartGap(pages, psi, seed)
	case "security-refresh":
		return wearlevel.NewSecurityRefresh(pages, psi, seed)
	case "security-refresh-2l":
		regions := 8
		for regions*2 >= pages {
			regions /= 2
		}
		if regions < 2 {
			return nil, fmt.Errorf("device too small for two-level refresh")
		}
		return wearlevel.NewTwoLevelSecurityRefresh(pages, regions, psi, seed)
	case "perfect":
		return &wearlevel.Perfect{N: pages}, nil
	default:
		return nil, fmt.Errorf("unknown leveler %q", spec)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aegissim", flag.ContinueOnError)
	var (
		schemeSpec = fs.String("scheme", "aegis:61", "in-block recovery scheme: "+experiments.SchemeGrammar)
		wlSpec     = fs.String("workload", "zipf", "address stream: uniform, sequential, zipf, hotspot")
		levSpec    = fs.String("leveler", "start-gap-rand", "wear leveler: none, start-gap, start-gap-rand, security-refresh, security-refresh-2l, perfect")
		pages      = fs.Int("pages", 32, "physical pages (power of two for security-refresh)")
		pageBytes  = fs.Int("pagebytes", 1024, "page size in bytes")
		blockBits  = fs.Int("blockbits", 512, "data block size in bits")
		meanLife   = fs.Float64("meanlife", 1500, "mean cell endurance in bit-writes (scaled; see DESIGN.md)")
		psi        = fs.Int("psi", 32, "writes between wear-leveling steps")
		pairing    = fs.Bool("pairing", true, "enable OS Dynamic Pairing of retired pages")
		stopFrac   = fs.Float64("stop", 0.10, "stop when usable capacity falls below this fraction")
		seed       = fs.Int64("seed", 1, "RNG seed")
		list       = fs.Bool("list", false, "list accepted specs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, "schemes:  ", experiments.SchemeGrammar)
		fmt.Fprintln(out, "workloads: uniform sequential zipf hotspot")
		fmt.Fprintln(out, "levelers:  none start-gap start-gap-rand security-refresh security-refresh-2l perfect")
		return nil
	}

	f, err := experiments.ParseScheme(*schemeSpec, *blockBits)
	if err != nil {
		return err
	}
	gen, err := parseWorkload(*wlSpec, *pages, *seed)
	if err != nil {
		return err
	}
	lev, err := parseLeveler(*levSpec, *pages, *psi, *seed)
	if err != nil {
		return err
	}
	d, err := device.New(device.Config{
		Pages:     *pages,
		PageBytes: *pageBytes,
		BlockBits: *blockBits,
		MeanLife:  *meanLife,
		CoV:       0.25,
		Scheme:    f,
		Leveler:   lev,
		Workload:  gen,
		Pairing:   *pairing,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}

	levName := "none"
	if lev != nil {
		levName = lev.Name()
	}
	fmt.Fprintf(out, "device: %d pages × %d B, blocks of %d bits under %s\n", *pages, *pageBytes, *blockBits, f.Name())
	fmt.Fprintf(out, "stack:  %s traffic → %s → OS retirement (pairing=%v)\n\n", gen.Name(), levName, *pairing)
	fmt.Fprintf(out, "%12s  %8s  %8s  %8s  %8s  %10s\n", "page writes", "usable", "healthy", "pairs", "retired", "faults")

	report := func() {
		c := d.Capacity()
		fmt.Fprintf(out, "%12d  %7.0f%%  %8d  %8d  %8d  %10d\n",
			d.Stats().LogicalWrites, 100*d.UsableFraction(), c.Healthy, c.Pairs, c.Retired, d.TotalFaults())
	}
	report()
	for _, th := range []float64{0.95, 0.90, 0.75, 0.50, 0.25, *stopFrac} {
		if th < *stopFrac {
			continue
		}
		for d.UsableFraction() > th {
			if !d.Step() {
				break
			}
		}
		report()
	}
	st := d.Stats()
	fmt.Fprintf(out, "\ntotals: %d logical writes, %d redirected, %d pair-served, %d leveler migrations\n",
		st.LogicalWrites, st.Redirected, st.PairServed, st.MigrationWrites)
	return nil
}
