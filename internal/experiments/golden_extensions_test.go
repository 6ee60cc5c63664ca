package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExtensionIDs are the extension experiments whose full Quick()
// rendering TestGoldenExtensions pins byte for byte.
var goldenExtensionIDs = []string{"freep", "payg", "device", "oscapacity", "memblock", "latency", "traffic"}

// TestGoldenExtensions renders the page-level and device-level
// extension experiments at the Quick preset and compares the text with
// testdata/extensions_quick.golden.  Every row is a deterministic
// function of the seed, so any difference is a behaviour change; a
// legitimate one regenerates the file with -update.
func TestGoldenExtensions(t *testing.T) {
	var b strings.Builder
	for _, id := range goldenExtensionIDs {
		r, err := Run(id, Quick())
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		for _, tbl := range r.Tables {
			b.WriteString(tbl.String())
			b.WriteString("\n")
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "extensions_quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("extension tables changed (regenerate with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
