package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"aegis/internal/aegisrw"
	"aegis/internal/core"
	"aegis/internal/ecc"
	"aegis/internal/ecp"
	"aegis/internal/failcache"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
)

// cache is the idealized fail cache the paper grants RDIS always and the
// rw variants / SAFERN-cache when evaluated.
var cache = failcache.Perfect{}

// MaxBlockBits is the largest data block a scheme spec is parsed at: a
// 512-byte block, eight times the paper's 512-bit configuration.
const MaxBlockBits = 4096

// maxLayoutMaskBytes bounds the group-mask table an Aegis spec makes
// plane build: B slopes × B groups, each mask ⌈n/64⌉ words plus about
// five words of vector header and pointer.  plane caches every layout
// for the life of the process, so the bound is per distinct (n, B).
// The paper's largest layout, 8×71 at 512 bits, takes 0.5 MB.
const maxLayoutMaskBytes = 8 << 20

// A family is one scheme-spec family: the names of its integer
// parameters, and the constructor they feed.  check, when set, bounds
// the parameters before the constructor allocates anything they size.
type family struct {
	name   string
	params []string
	check  func(n int, a []int) error
	build  func(n int, a []int) (scheme.Factory, error)
}

// families is the scheme-spec grammar, one row per family.
var families = []family{
	{"aegis", []string{"B"}, checkAegis,
		func(n int, a []int) (scheme.Factory, error) { return core.NewFactory(n, a[0]) }},
	{"aegis-p", []string{"B", "Q"}, checkAegis,
		func(n int, a []int) (scheme.Factory, error) { return core.NewPFactory(n, a[0], a[1]) }},
	{"aegis-rw", []string{"B"}, checkAegis,
		func(n int, a []int) (scheme.Factory, error) { return aegisrw.NewRWFactory(n, a[0], cache) }},
	{"aegis-rw-p", []string{"B", "P"}, checkAegis,
		func(n int, a []int) (scheme.Factory, error) { return aegisrw.NewRWPFactory(n, a[0], a[1], cache) }},
	{"ecp", []string{"ENTRIES"}, checkCount,
		func(n int, a []int) (scheme.Factory, error) { return ecp.NewFactory(n, a[0]) }},
	{"safer", []string{"GROUPS"}, nil,
		func(n int, a []int) (scheme.Factory, error) { return safer.NewFactory(n, a[0]) }},
	{"safer-cache", []string{"GROUPS"}, nil,
		func(n int, a []int) (scheme.Factory, error) { return safer.NewCachedFactory(n, a[0], cache) }},
	{"rdis", []string{"DEPTH"}, checkCount,
		func(n int, a []int) (scheme.Factory, error) { return rdis.NewFactory(n, a[0], cache) }},
	{"hamming", nil, nil,
		func(n int, _ []int) (scheme.Factory, error) { return ecc.NewFactory(n) }},
}

// SchemeGrammar documents the scheme-spec syntax; ParseScheme's errors
// quote it so callers can self-correct.
var SchemeGrammar = func() string {
	forms := make([]string, len(families))
	for i, fam := range families {
		forms[i] = strings.Join(append([]string{fam.name}, fam.params...), ":")
	}
	return strings.Join(forms, " | ")
}()

// ParseScheme turns a scheme spec ("family:param…", see SchemeGrammar)
// into a factory for blockBits-sized data blocks.  The parameters are
// the integers the paper's configurations use: "aegis:61" is Aegis 9x61
// at 512 bits, "safer-cache:64" is SAFER64-cache.  Every parameter that
// sizes an allocation is bounded, so an accepted spec always builds.
func ParseScheme(spec string, blockBits int) (scheme.Factory, error) {
	if blockBits < 1 || blockBits > MaxBlockBits {
		return nil, fmt.Errorf("scheme %q: block size %d outside [1, %d]", spec, blockBits, MaxBlockBits)
	}
	parts := strings.Split(spec, ":")
	var fam *family
	for i := range families {
		if families[i].name == parts[0] {
			fam = &families[i]
			break
		}
	}
	if fam == nil {
		return nil, fmt.Errorf("unknown scheme family %q (grammar: %s)", parts[0], SchemeGrammar)
	}
	if len(parts)-1 != len(fam.params) {
		return nil, fmt.Errorf("scheme %q: family %q takes %d parameter(s), got %d (grammar: %s)",
			spec, fam.name, len(fam.params), len(parts)-1, SchemeGrammar)
	}
	args := make([]int, len(fam.params))
	for i, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("scheme %q: parameter %q is not an integer (grammar: %s)", spec, p, SchemeGrammar)
		}
		args[i] = v
	}
	wrap := func(err error) error { return fmt.Errorf("scheme %q at %d bits: %w", spec, blockBits, err) }
	if fam.check != nil {
		if err := fam.check(blockBits, args); err != nil {
			return nil, wrap(err)
		}
	}
	f, err := fam.build(blockBits, args)
	if err != nil {
		return nil, wrap(err)
	}
	return f, nil
}

// checkAegis bounds B by the layout's mask table, and a pointer budget,
// when the family has one, by the B groups it can point at.
func checkAegis(n int, a []int) error {
	b, words := a[0], (n+63)/64
	if b > 1<<20 || b*b*8*(words+5) > maxLayoutMaskBytes {
		return fmt.Errorf("B = %d needs a group-mask table over the %d-byte bound", b, maxLayoutMaskBytes)
	}
	if len(a) == 2 && a[1] > b {
		return fmt.Errorf("pointer budget %d exceeds the B = %d groups", a[1], b)
	}
	return nil
}

// checkCount bounds an ECP entry count or an RDIS depth by the block's
// cells.  Entries size each block's state and depth bounds each write's
// recursion; more entries than cells cannot correct more.
func checkCount(n int, a []int) error {
	if a[0] > n {
		return fmt.Errorf("%d exceeds the block's %d cells", a[0], n)
	}
	return nil
}
