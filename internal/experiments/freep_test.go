package experiments

import (
	"strconv"
	"testing"
)

func TestFreePSchemeBeatsSpares(t *testing.T) {
	p := tiny()
	p.PageTrials = 4
	tbl, err := FreeP(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	life := map[string]float64{}
	bits := map[string]int{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("lifetime cell %q", row[2])
		}
		life[row[0]] = v
		b, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("overhead cell %q", row[1])
		}
		bits[row[0]] = b
	}
	// Spares help the weak scheme…
	if life["ECP6 + 4 spares"] <= life["ECP6 + 0 spares"] {
		t.Fatalf("spares did not extend ECP6: %v vs %v", life["ECP6 + 4 spares"], life["ECP6 + 0 spares"])
	}
	// …but a spare-free Aegis beats ECP6-with-spares at a fraction of
	// the bits — §4's delayed-redirection claim.
	if life["Aegis 23x23 + 0 spares"] <= life["ECP6 + 4 spares"] {
		t.Fatalf("Aegis 23x23 (%v) not above ECP6+4 spares (%v)",
			life["Aegis 23x23 + 0 spares"], life["ECP6 + 4 spares"])
	}
	if bits["Aegis 23x23 + 0 spares"] >= bits["ECP6 + 4 spares"]/4 {
		t.Fatalf("overhead relation unexpected: %d vs %d",
			bits["Aegis 23x23 + 0 spares"], bits["ECP6 + 4 spares"])
	}
}
