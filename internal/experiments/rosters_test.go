package experiments

import (
	"testing"

	"aegis/internal/scheme"
)

// TestRosterNames pins every figure roster entry's display name, block
// size and overhead.  Trial seeds and shard keys hash the display name,
// so a roster entry that renames itself moves every pinned result.
func TestRosterNames(t *testing.T) {
	type entry struct {
		name     string
		bits     int
		overhead int
	}
	rosters := []struct {
		roster string
		got    []scheme.Factory
		want   []entry
	}{
		{"roster512", roster512(), []entry{
			{"ECP4", 512, 41},
			{"ECP5", 512, 51},
			{"ECP6", 512, 61},
			{"SAFER32", 512, 55},
			{"SAFER64", 512, 91},
			{"SAFER128", 512, 159},
			{"SAFER32-cache", 512, 55},
			{"SAFER64-cache", 512, 91},
			{"SAFER128-cache", 512, 159},
			{"RDIS-3", 512, 97},
			{"Aegis 23x23", 512, 28},
			{"Aegis 17x31", 512, 36},
			{"Aegis 9x61", 512, 67},
		}},
		{"roster256", roster256(), []entry{
			{"ECP4", 256, 37},
			{"ECP6", 256, 55},
			{"SAFER32", 256, 50},
			{"SAFER64", 256, 85},
			{"RDIS-3", 256, 65},
			{"Aegis 12x23", 256, 28},
			{"Aegis 9x31", 256, 36},
		}},
		{"roster8", roster8(), []entry{
			{"ECP6", 512, 61},
			{"SAFER32", 512, 55},
			{"SAFER64", 512, 91},
			{"SAFER128", 512, 159},
			{"SAFER64-cache", 512, 91},
			{"SAFER128-cache", 512, 159},
			{"RDIS-3", 512, 97},
			{"Aegis 17x31", 512, 36},
			{"Aegis 9x61", 512, 67},
		}},
		{"roster9", roster9(), []entry{
			{"ECP6", 512, 61},
			{"SAFER32", 512, 55},
			{"SAFER32-cache", 512, 55},
			{"SAFER64", 512, 91},
			{"SAFER128", 512, 159},
			{"SAFER128-cache", 512, 159},
			{"Aegis 17x31", 512, 36},
			{"Aegis 9x61", 512, 67},
		}},
		{"rosterVariants", rosterVariants(), []entry{
			{"Aegis 23x23", 512, 28},
			{"Aegis-rw 23x23", 512, 28},
			{"Aegis-rw-p 23x23 p=4", 512, 27},
			{"Aegis 17x31", 512, 36},
			{"Aegis-rw 17x31", 512, 36},
			{"Aegis-rw-p 17x31 p=5", 512, 32},
			{"Aegis 9x61", 512, 67},
			{"Aegis-rw 9x61", 512, 67},
			{"Aegis-rw-p 9x61 p=9", 512, 62},
			{"Aegis 8x71", 512, 78},
			{"Aegis-rw 8x71", 512, 78},
			{"Aegis-rw-p 8x71 p=9", 512, 72},
		}},
	}
	for _, r := range rosters {
		if len(r.got) != len(r.want) {
			t.Errorf("%s: %d entries, want %d", r.roster, len(r.got), len(r.want))
			continue
		}
		for i, f := range r.got {
			got := entry{f.Name(), f.BlockBits(), f.OverheadBits()}
			if got != r.want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", r.roster, i, got, r.want[i])
			}
		}
	}
}
