package scheme

import (
	"errors"
	"sync/atomic"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
)

// plainPlanner never inverts anything, so a stuck-at-Wrong cell fails
// every verification pass: the loop's own exits must end the request.
type plainPlanner struct{ plans int }

func (p *plainPlanner) Plan([]failcache.Fault, []bool) string { p.plans++; return "" }

func (p *plainPlanner) Encode(data, phys *bitvec.Vector) bool {
	phys.CopyFrom(data)
	return false
}

func (p *plainPlanner) InvertedGroups() int { return 0 }

// recorder keeps every event it is sent.
type recorder []TraceEvent

func (r *recorder) TraceEvent(e TraceEvent) { *r = append(*r, e) }

// stuckBlock is an n-bit block whose cell 5 is stuck at 1, so writing
// zeros leaves exactly one wrong cell.
func stuckBlock(n int) *pcm.Block {
	blk := pcm.NewImmortalBlock(n)
	blk.InjectFault(5, true)
	return blk
}

func TestLoopDiscoveryDiesWhenVerifyFindsNothingNew(t *testing.T) {
	l := NewLoop(64, nil)
	var rec recorder
	l.SetTracer(&rec)
	p := &plainPlanner{}
	err := l.Run(p, stuckBlock(64), bitvec.New(64))
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Run = %v, want ErrUnrecoverable", err)
	}
	// Pass 0 reuses the old configuration; pass 1 plans over the fault
	// pass 0 revealed and fails on it again.
	if p.plans != 1 {
		t.Errorf("planned %d times, want 1", p.plans)
	}
	want := OpStats{Requests: 1, RawWrites: 2, VerifyReads: 2}
	if got := l.OpStats(); got != want {
		t.Errorf("OpStats = %+v, want %+v", got, want)
	}
	death := TraceEvent{Kind: TraceDeath, Faults: 1, Cause: CauseStuckVerify}
	if len(rec) != 1 || rec[0] != death {
		t.Errorf("events = %+v, want [%+v]", rec, death)
	}
}

func TestLoopCacheRunsToPassBudget(t *testing.T) {
	const n = 64
	l := NewLoop(n, failcache.Perfect{}.View(0))
	var rec recorder
	l.SetTracer(&rec)
	p := &plainPlanner{}
	err := l.Run(p, stuckBlock(n), bitvec.New(n))
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Run = %v, want ErrUnrecoverable", err)
	}
	if p.plans != n+1 {
		t.Errorf("planned %d times, want %d", p.plans, n+1)
	}
	want := OpStats{Requests: 1, RawWrites: n + 1, VerifyReads: n + 1}
	if got := l.OpStats(); got != want {
		t.Errorf("OpStats = %+v, want %+v", got, want)
	}
	// The death reports the faults this request revealed, not the view.
	death := TraceEvent{Kind: TraceDeath, Faults: 1, Cause: CauseIterationLimit}
	if len(rec) != 1 || rec[0] != death {
		t.Errorf("events = %+v, want [%+v]", rec, death)
	}
}

// causePlanner fails every plan with a fixed cause.
type causePlanner struct{ plainPlanner }

func (causePlanner) Plan([]failcache.Fault, []bool) string { return CauseNoSlope }

func TestLoopPlanDeathReportsKnownFaults(t *testing.T) {
	l := NewLoop(64, failcache.Perfect{}.View(0))
	var rec recorder
	l.SetTracer(&rec)
	if err := l.Run(&causePlanner{}, stuckBlock(64), bitvec.New(64)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Run = %v, want ErrUnrecoverable", err)
	}
	// The cache family plans before its first write, over the view.
	if got := l.OpStats(); got != (OpStats{Requests: 1}) {
		t.Errorf("OpStats = %+v, want one request and no writes", got)
	}
	death := TraceEvent{Kind: TraceDeath, Faults: 1, Cause: CauseNoSlope}
	if len(rec) != 1 || rec[0] != death {
		t.Errorf("events = %+v, want [%+v]", rec, death)
	}
}

func TestLoopResetRenewsBoundView(t *testing.T) {
	var ids atomic.Uint64
	l := NewLoop(64, nil)
	l.BindCache(failcache.NewDirectMapped(8), &ids)
	l.ops.Requests = 3
	l.SetTracer(&recorder{})
	l.Reset()
	if ids.Load() != 2 {
		t.Errorf("%d block IDs drawn after BindCache and Reset, want 2", ids.Load())
	}
	if l.OpStats() != (OpStats{}) || l.tr != nil {
		t.Error("Reset kept counters or tracer")
	}
}
