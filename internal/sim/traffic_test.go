package sim

import (
	"testing"

	"aegis/internal/core"
	"aegis/internal/scheme"
)

func TestOpStatsAccumulate(t *testing.T) {
	cfg := quickCfg(1)
	f := core.MustFactory(512, 23)
	s := f.New()
	rep := s.(scheme.OpReporter)
	rs := Blocks(f, cfg)
	_ = rs
	if got := rep.OpStats().Requests; got != 0 {
		t.Fatalf("fresh instance has %d requests", got)
	}
}

func TestExtraWritesPerRequest(t *testing.T) {
	s := scheme.OpStats{Requests: 10, RawWrites: 25}
	if got := s.ExtraWritesPerRequest(); got != 1.5 {
		t.Fatalf("ExtraWritesPerRequest = %v", got)
	}
	if got := (scheme.OpStats{}).ExtraWritesPerRequest(); got != 0 {
		t.Fatalf("zero stats = %v", got)
	}
}
