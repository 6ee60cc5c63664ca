package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestLatencyFlatForCachedScheme(t *testing.T) {
	p := tiny()
	p.CurveTrials = 40
	tbl, err := Latency(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 20 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Aegis-rw column (last) stays flat: single-pass writes.
	col := len(tbl.Header) - 1
	first, err := strconv.ParseFloat(tbl.Rows[0][col], 64)
	if err != nil {
		t.Fatalf("cell %q", tbl.Rows[0][col])
	}
	for _, row := range tbl.Rows[:10] {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("cell %q", row[col])
		}
		if v != first {
			t.Fatalf("Aegis-rw latency not flat: %v vs %v", v, first)
		}
	}
	// The cache-less Aegis column grows with faults.
	aegisCol := col - 1
	v1, _ := strconv.ParseFloat(tbl.Rows[0][aegisCol], 64)
	v6, _ := strconv.ParseFloat(tbl.Rows[5][aegisCol], 64)
	if v6 <= v1 {
		t.Fatalf("cache-less latency did not grow: %v -> %v", v1, v6)
	}
}

func TestSoftFTCBeyondHard(t *testing.T) {
	p := tiny()
	p.CurveTrials = 30
	tbl := SoftFTC(p)
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var prevSoft float64
	for _, row := range tbl.Rows {
		hard, _ := strconv.Atoi(row[3])
		soft, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("soft cell %q", row[4])
		}
		if soft <= float64(hard) {
			t.Fatalf("%s: soft FTC %v not above hard %d", row[0], soft, hard)
		}
		// Soft capacity grows with B.
		if soft+1 < prevSoft {
			t.Fatalf("%s: soft FTC %v fell below previous %v", row[0], soft, prevSoft)
		}
		prevSoft = soft
	}
	// Cross-validation against the paper's 9x61: soft mean ≈ 23 (the
	// block sims' faults-at-death), i.e. roughly double the hard 11.
	for _, row := range tbl.Rows {
		if row[0] != "Aegis 9x61" {
			continue
		}
		soft, _ := strconv.ParseFloat(row[4], 64)
		if soft < 18 || soft > 28 {
			t.Fatalf("Aegis 9x61 soft FTC = %v, want ≈23", soft)
		}
	}
}

func TestMemBlockTrendSimilar(t *testing.T) {
	p := tiny()
	p.PageTrials = 5
	tbl, err := MemBlock(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	get := func(name string, col int) float64 {
		for _, row := range tbl.Rows {
			if row[0] == name {
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Fatalf("cell %q", row[col])
				}
				return v
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	// The paper's "similar trend": at both unit sizes, Aegis 9x61 leads
	// and ECP6 trails.
	for _, col := range []int{2, 3} {
		if get("Aegis 9x61", col) <= get("ECP6", col) {
			t.Fatalf("column %d: Aegis 9x61 not above ECP6", col)
		}
		if get("Aegis 9x61", col) <= get("SAFER64", col) {
			t.Fatalf("column %d: Aegis 9x61 not above SAFER64", col)
		}
	}
}

func TestRunNewExtensionIDs(t *testing.T) {
	p := tiny()
	p.CurveTrials = 10
	p.PageTrials = 2
	for _, id := range []string{"latency", "softftc", "memblock"} {
		r, err := Run(id, p)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if len(r.Tables) != 1 || len(r.Tables[0].Rows) == 0 {
			t.Fatalf("Run(%s): empty result", id)
		}
		if !strings.Contains(r.Tables[0].String(), "==") {
			t.Fatalf("Run(%s): unrendered table", id)
		}
	}
}
