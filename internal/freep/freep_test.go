package freep

import (
	"testing"

	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/engine"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/sim"
)

// pageConfig is a small page study: 8 × 512-bit blocks, short lives.
func pageConfig(trials int) sim.Config {
	return sim.Config{BlockBits: 512, PageBytes: 512, MeanLife: 400, CoV: 0.25, Trials: trials, Seed: 5, Workers: 2}
}

func mustFactory(t *testing.T, inner scheme.Factory, spares int) *Factory {
	t.Helper()
	f, err := NewFactory(inner, spares)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func meanLifetime(rs []sim.PageResult) float64 {
	var sum int64
	for _, r := range rs {
		sum += r.Lifetime
	}
	return float64(sum) / float64(len(rs))
}

func TestNewFactoryValidation(t *testing.T) {
	if _, err := NewFactory(nil, 1); err == nil {
		t.Error("missing in-block scheme accepted")
	}
}

// TestNewManagerValidation checks the per-page spare budget: negative
// budgets are refused, an empty one is a valid (in-block only) page.
func TestNewManagerValidation(t *testing.T) {
	if _, err := NewFactory(ecp.MustFactory(512, 1), -1); err == nil {
		t.Error("negative spares accepted")
	}
	if _, err := NewFactory(ecp.MustFactory(512, 1), 0); err != nil {
		t.Errorf("zero spares refused: %v", err)
	}
}

// TestSimulatePageValidation checks that a FREE-p page study whose page
// holds no whole block is refused instead of run.
func TestSimulatePageValidation(t *testing.T) {
	cfg := pageConfig(1)
	cfg.PageBytes = 0
	if _, err := (&engine.Engine{}).Pages(mustFactory(t, ecp.MustFactory(512, 1), 1), cfg); err == nil {
		t.Fatal("zero blocks accepted")
	}
}

func TestNameEncodesSpares(t *testing.T) {
	a := mustFactory(t, ecp.MustFactory(512, 6), 1)
	b := mustFactory(t, ecp.MustFactory(512, 6), 2)
	if a.Name() == b.Name() {
		t.Fatalf("spare budgets share the name %q", a.Name())
	}
	if a.BlockBits() != 512 || a.OverheadBits() != ecp.OverheadBits(512, 6) {
		t.Fatalf("geometry: %d bits, %d overhead", a.BlockBits(), a.OverheadBits())
	}
}

func TestRedirectConsumesSpares(t *testing.T) {
	page := mustFactory(t, ecp.MustFactory(512, 1), 2).NewPage()
	dead := pcm.NewImmortalBlock(512)
	if !page.Spare(dead) || !page.Spare(dead) {
		t.Fatal("redirect failed with spares left")
	}
	if page.Spare(dead) {
		t.Fatal("redirect succeeded with no spares")
	}
	if page.Spent() != 2 {
		t.Fatalf("spent = %d", page.Spent())
	}
}

func TestPointerStorable(t *testing.T) {
	blk := pcm.NewImmortalBlock(512)
	if !PointerStorable(blk) {
		t.Fatal("healthy block cannot store pointer")
	}
	// Kill almost every cell: 7×10 = 70 healthy cells needed.
	for i := 0; i < 512-60; i++ {
		blk.InjectFault(i, true)
	}
	if PointerStorable(blk) {
		t.Fatal("nearly-dead block claimed storable")
	}
	if mustFactory(t, ecp.MustFactory(512, 1), 1).NewPage().Spare(blk) {
		t.Fatal("redirect succeeded without pointer room")
	}
}

func TestOverheadBits(t *testing.T) {
	// 2 spares of 512-bit blocks under ECP6 (61 bits) = 2 × 573.
	if got := OverheadBits(512, 61, 2); got != 1146 {
		t.Fatalf("OverheadBits = %d", got)
	}
}

func TestSparesExtendLifetime(t *testing.T) {
	inner := ecp.MustFactory(512, 2)
	without := sim.Pages(mustFactory(t, inner, 0), pageConfig(4))
	with := sim.Pages(mustFactory(t, inner, 4), pageConfig(4))
	for i, r := range with {
		if r.Spent == 0 {
			t.Fatalf("trial %d: no redirections recorded", i)
		}
		if r.Spent > 4 {
			t.Fatalf("trial %d: %d redirections from 4 spares", i, r.Spent)
		}
	}
	if meanLifetime(with) <= meanLifetime(without) {
		t.Fatalf("4 spares did not extend page life: %v vs %v", meanLifetime(with), meanLifetime(without))
	}
}

func TestStrongSchemeDelaysRedirection(t *testing.T) {
	// §4: a strong in-block scheme substantially delays redirection —
	// at equal spare budgets, Aegis pages redirect later and live longer.
	weak := sim.Pages(mustFactory(t, ecp.MustFactory(512, 1), 2), pageConfig(4))
	strong := sim.Pages(mustFactory(t, core.MustFactory(512, 61), 2), pageConfig(4))
	if meanLifetime(strong) <= meanLifetime(weak) {
		t.Fatalf("Aegis+spares (%v) not above ECP1+spares (%v)", meanLifetime(strong), meanLifetime(weak))
	}
}

// TestZeroSparesIsInBlockScheme pins the page hook's neutrality: with no
// spares, a FREE-p page is its in-block scheme's page, trial by trial.
func TestZeroSparesIsInBlockScheme(t *testing.T) {
	for _, inner := range []scheme.Factory{ecp.MustFactory(512, 2), core.MustFactory(512, 23)} {
		want := sim.Pages(inner, pageConfig(6))
		got := sim.Pages(mustFactory(t, inner, 0), pageConfig(6))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s trial %d: FREE-p with 0 spares %+v, in-block scheme %+v", inner.Name(), i, got[i], want[i])
			}
		}
	}
}
