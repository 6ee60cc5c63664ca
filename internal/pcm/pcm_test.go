package pcm

import (
	"aegis/internal/xrand"
	"testing"
	"testing/quick"

	"aegis/internal/bitvec"
	"aegis/internal/dist"
)

func TestNewBlockStartsClean(t *testing.T) {
	b := NewBlock(512, dist.Fixed(10), xrand.New(1))
	if b.Size() != 512 {
		t.Fatalf("Size = %d", b.Size())
	}
	if b.FaultCount() != 0 {
		t.Fatalf("fresh block has %d faults", b.FaultCount())
	}
	if got := b.Read(nil); got.Any() {
		t.Fatal("fresh block should read all zeros")
	}
}

func TestNewBlockPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlock(0, dist.Fixed(1), nil)
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := xrand.New(2)
	b := NewImmortalBlock(256)
	for i := 0; i < 10; i++ {
		data := bitvec.Random(256, rng)
		b.WriteRaw(data)
		if !b.Read(nil).Equal(data) {
			t.Fatalf("round trip %d failed", i)
		}
		if b.Verify(data, nil).Any() {
			t.Fatalf("verify after clean write reports errors")
		}
	}
}

func TestDifferentialWriteCountsOnlyFlips(t *testing.T) {
	b := NewImmortalBlock(128)
	data := bitvec.New(128)
	data.Set(0, true)
	data.Set(64, true)
	if got := b.WriteRaw(data); got != 2 {
		t.Fatalf("first write pulses = %d, want 2", got)
	}
	// Same data again: nothing differs, no pulses.
	if got := b.WriteRaw(data); got != 0 {
		t.Fatalf("rewrite pulses = %d, want 0", got)
	}
	// Clear one bit: exactly one pulse.
	data.Set(0, false)
	if got := b.WriteRaw(data); got != 1 {
		t.Fatalf("clear pulses = %d, want 1", got)
	}
	st := b.Stats()
	if st.RawWrites != 3 || st.BitWrites != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWearExhaustionCreatesStuckAt(t *testing.T) {
	// Every cell survives exactly 3 pulses.
	b := NewBlock(64, dist.Fixed(3), xrand.New(3))
	ones := bitvec.New(64)
	ones.Fill(true)
	zeros := bitvec.New(64)

	b.WriteRaw(ones)  // pulse 1 (0->1)
	b.WriteRaw(zeros) // pulse 2 (1->0)
	if b.FaultCount() != 0 {
		t.Fatalf("faults after 2 pulses: %d", b.FaultCount())
	}
	b.WriteRaw(ones) // pulse 3: budget exhausted, all stuck at 1
	if got := b.FaultCount(); got != 64 {
		t.Fatalf("faults after 3rd pulse = %d, want 64", got)
	}
	// Stuck at the killing write's value (1); further writes don't change it.
	b.WriteRaw(zeros)
	read := b.Read(nil)
	if read.PopCount() != 64 {
		t.Fatalf("stuck cells changed value: %d ones", read.PopCount())
	}
	if !b.StuckValue(5) {
		t.Fatal("StuckValue(5) = false, want true")
	}
	errs := b.Verify(zeros, nil)
	if errs.PopCount() != 64 {
		t.Fatalf("verify should flag all 64 stuck-at-wrong cells, got %d", errs.PopCount())
	}
}

func TestStuckCellReceivesNoPulses(t *testing.T) {
	b := NewImmortalBlock(8)
	b.InjectFault(3, true)
	data := bitvec.New(8) // all zeros; cell 3 differs but is stuck
	if got := b.WriteRaw(data); got != 0 {
		t.Fatalf("stuck cell received %d pulses", got)
	}
	if !b.Read(nil).Get(3) {
		t.Fatal("stuck value lost")
	}
}

func TestInjectFault(t *testing.T) {
	b := NewImmortalBlock(32)
	b.InjectFault(7, true)
	b.InjectFault(20, false)
	if got := b.FaultCount(); got != 2 {
		t.Fatalf("FaultCount = %d", got)
	}
	faults := b.Faults()
	if len(faults) != 2 || faults[0] != 7 || faults[1] != 20 {
		t.Fatalf("Faults() = %v", faults)
	}
	if !b.IsStuck(7) || b.IsStuck(8) {
		t.Fatal("IsStuck wrong")
	}
	if !b.StuckValue(7) || b.StuckValue(20) {
		t.Fatal("StuckValue wrong")
	}
	// Re-injecting the same cell must not double count.
	b.InjectFault(7, false)
	if got := b.Stats().NewFaults; got != 2 {
		t.Fatalf("NewFaults = %d, want 2", got)
	}
}

func TestStuckValuePanicsOnHealthyCell(t *testing.T) {
	b := NewImmortalBlock(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.StuckValue(0)
}

func TestWriteSizeMismatchPanics(t *testing.T) {
	b := NewImmortalBlock(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.WriteRaw(bitvec.New(65))
}

func TestStuckMask(t *testing.T) {
	b := NewImmortalBlock(64)
	b.InjectFault(1, true)
	b.InjectFault(63, false)
	m := b.StuckMask(nil)
	if m.PopCount() != 2 || !m.Get(1) || !m.Get(63) {
		t.Fatalf("StuckMask = %v", m.OnesIndices())
	}
}

func TestLifetimeDistributionRoughMean(t *testing.T) {
	rng := xrand.New(5)
	d := dist.NewNormal(1000)
	var sum int64
	const samples = 20000
	for i := 0; i < samples; i++ {
		v := d.Sample(rng)
		if v < 1 {
			t.Fatal("lifetime below 1")
		}
		sum += v
	}
	mean := float64(sum) / samples
	if mean < 950 || mean > 1050 {
		t.Fatalf("sampled mean = %.1f, want ≈1000", mean)
	}
}

// Property: after any sequence of random writes, a verification read
// against the last written data flags exactly the stuck cells whose stuck
// value differs from that data.
func TestPropVerifyFlagsExactlyWrongStuck(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		b := NewBlock(128, dist.Fixed(int64(1+rng.Intn(6))), rng)
		var last *bitvec.Vector
		for i := 0; i < 20; i++ {
			last = bitvec.Random(128, rng)
			b.WriteRaw(last)
		}
		errs := b.Verify(last, nil)
		for i := 0; i < 128; i++ {
			wrongStuck := b.IsStuck(i) && b.StuckValue(i) != last.Get(i)
			if errs.Get(i) != wrongStuck {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: faults are monotone — once stuck, always stuck, and the stuck
// value never changes.
func TestPropFaultsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		b := NewBlock(64, dist.Fixed(int64(1+rng.Intn(4))), rng)
		type fault struct{ val bool }
		known := map[int]fault{}
		for i := 0; i < 30; i++ {
			b.WriteRaw(bitvec.Random(64, rng))
			for _, p := range b.Faults() {
				v := b.StuckValue(p)
				if prev, ok := known[p]; ok {
					if prev.val != v {
						return false // stuck value changed
					}
				} else {
					known[p] = fault{val: v}
				}
			}
			// No previously known fault may disappear.
			cur := map[int]bool{}
			for _, p := range b.Faults() {
				cur[p] = true
			}
			for p := range known {
				if !cur[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRaw512(b *testing.B) {
	rng := xrand.New(1)
	blk := NewBlock(512, dist.NewNormal(1e8), rng)
	data := make([]*bitvec.Vector, 16)
	for i := range data {
		data[i] = bitvec.Random(512, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.WriteRaw(data[i%len(data)])
	}
}

// BenchmarkRequestWrite512 times one request-scoped write of random data
// into a 512-bit block, wear settle included, the unit of every page
// study.  A block is reset (untimed) once a quarter of its cells are
// stuck, so short lifetimes measure live blocks rather than dead ones.
func BenchmarkRequestWrite512(b *testing.B) {
	cases := []struct {
		name string
		life dist.Lifetime
	}{
		{"MeanLife=50", dist.NewNormal(50)},
		{"MeanLife=600", dist.NewNormal(600)},
		{"MeanLife=2000", dist.NewNormal(2000)},
		{"MeanLife=20000", dist.NewNormal(20000)},
		{"MeanLife=1e8", dist.NewNormal(1e8)},
		{"Immortal", dist.Immortal{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := xrand.New(1)
			blk := NewBlock(512, c.life, rng)
			data := make([]*bitvec.Vector, 16)
			for i := range data {
				data[i] = bitvec.Random(512, rng)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.BeginRequest()
				blk.WriteRaw(data[i%len(data)])
				blk.EndRequest()
				if blk.FaultCount() > 512/4 {
					b.StopTimer()
					blk.Reset(c.life, rng)
					b.StartTimer()
				}
			}
		})
	}
}
