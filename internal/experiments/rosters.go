package experiments

import (
	"fmt"

	"aegis/internal/scheme"
)

// mustParse parses a lineup of scheme specs at one block size; rosters
// are fixed at compile time, so a spec that does not parse is a bug.
func mustParse(blockBits int, specs ...string) []scheme.Factory {
	out := make([]scheme.Factory, len(specs))
	for i, spec := range specs {
		f, err := ParseScheme(spec, blockBits)
		if err != nil {
			panic(err)
		}
		out[i] = f
	}
	return out
}

// roster512 is the scheme lineup of Figures 5–9 for 512-bit data blocks.
func roster512() []scheme.Factory {
	return mustParse(512,
		"ecp:4", "ecp:5", "ecp:6",
		"safer:32", "safer:64", "safer:128",
		"safer-cache:32", "safer-cache:64", "safer-cache:128",
		"rdis:3",
		"aegis:23", "aegis:31", "aegis:61") // Aegis 23x23, 17x31, 9x61
}

// roster256 is the 256-bit-block lineup of Figure 5 (left half) and the
// 256-bit columns of Figures 6–7.
func roster256() []scheme.Factory {
	return mustParse(256,
		"ecp:4", "ecp:6", "safer:32", "safer:64", "rdis:3",
		"aegis:23", "aegis:31") // Aegis 12x23, 9x31
}

// roster8 is the Figure 8 lineup (block failure probability, 512-bit).
func roster8() []scheme.Factory {
	return mustParse(512,
		"ecp:6", "safer:32", "safer:64", "safer:128",
		"safer-cache:64", "safer-cache:128", "rdis:3",
		"aegis:31", "aegis:61")
}

// roster9 is the Figure 9 lineup (page survival, 512-bit).
func roster9() []scheme.Factory {
	return mustParse(512,
		"ecp:6", "safer:32", "safer-cache:32", "safer:64",
		"safer:128", "safer-cache:128", "aegis:31", "aegis:61")
}

// variantLayouts are the A×B formations of Figures 10–13 with the
// representative Aegis-rw-p pointer budgets §3.3 selects.
var variantLayouts = []struct {
	B        int
	Pointers int
}{
	{B: 23, Pointers: 4}, // Aegis-rw-p 23x23, 4 pointers
	{B: 31, Pointers: 5}, // 17x31, 5 pointers
	{B: 61, Pointers: 9}, // 9x61, 9 pointers
	{B: 71, Pointers: 9}, // 8x71, 9 pointers
}

// rosterVariants is the Figure 11–13 lineup: Aegis, Aegis-rw and
// Aegis-rw-p for each formation.
func rosterVariants() []scheme.Factory {
	var specs []string
	for _, v := range variantLayouts {
		specs = append(specs,
			fmt.Sprintf("aegis:%d", v.B),
			fmt.Sprintf("aegis-rw:%d", v.B),
			fmt.Sprintf("aegis-rw-p:%d:%d", v.B, v.Pointers))
	}
	return mustParse(512, specs...)
}
