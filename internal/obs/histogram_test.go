package obs

import (
	"math"
	"sync"
	"testing"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Bucket 64 would hold values ≥ 2^63, which int64 cannot represent,
	// so only buckets 0…63 are reachable.
	for i := 1; i < 64; i++ {
		if bucketIndex(BucketLow(i)) != i || bucketIndex(BucketHigh(i)) != i {
			t.Errorf("bucket %d bounds [%d, %d] do not map back to it", i, BucketLow(i), BucketHigh(i))
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 8, 100, -2} {
		h.Observe(v)
	}
	tot := h.Totals()
	if tot.Count != 7 {
		t.Fatalf("Count = %d, want 7", tot.Count)
	}
	if tot.Sum != 113 {
		t.Fatalf("Sum = %d, want 113 (negative observations clamp to 0)", tot.Sum)
	}
	if tot.Min != 0 || tot.Max != 100 {
		t.Fatalf("Min/Max = %d/%d, want 0/100", tot.Min, tot.Max)
	}
	var n int64
	for _, b := range tot.Buckets {
		if b.N <= 0 {
			t.Fatalf("empty bucket %+v in snapshot", b)
		}
		n += b.N
	}
	if n != tot.Count {
		t.Fatalf("bucket counts sum to %d, want %d", n, tot.Count)
	}
	if got := tot.Mean(); math.Abs(got-113.0/7) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", got, 113.0/7)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	tot := h.Totals()
	if tot.Count != 0 || tot.Sum != 0 || tot.Min != 0 || tot.Max != 0 || len(tot.Buckets) != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", tot)
	}
	if tot.Mean() != 0 || tot.Quantile(0.5) != 0 {
		t.Fatal("empty histogram derived stats not zero")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	tot := h.Totals()
	// The quantile is a bucket upper bound: an over-estimate of at most
	// one bucket width, clamped to the observed max.
	if q := tot.Quantile(0.5); q < 50 || q > 63 {
		t.Fatalf("Quantile(0.5) = %d, want within [50, 63]", q)
	}
	if q := tot.Quantile(1); q != 100 {
		t.Fatalf("Quantile(1) = %d, want the max 100", q)
	}
	if q := tot.Quantile(0); q < 1 {
		t.Fatalf("Quantile(0) = %d, want >= 1", q)
	}
}

func TestHistTotalsPlus(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	a.Observe(10)
	b.Observe(5)
	b.Observe(100)
	sum := a.Totals().Plus(b.Totals())
	if sum.Count != 4 || sum.Sum != 116 || sum.Min != 1 || sum.Max != 100 {
		t.Fatalf("merged totals wrong: %+v", sum)
	}
	var n int64
	for _, bk := range sum.Buckets {
		n += bk.N
	}
	if n != 4 {
		t.Fatalf("merged buckets sum to %d, want 4", n)
	}
	empty := HistTotals{}
	if got := empty.Plus(b.Totals()); got.Min != 5 || got.Max != 100 {
		t.Fatalf("empty+b min/max = %d/%d, want 5/100", got.Min, got.Max)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run with -race to check Observe really is lock-free-safe.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	tot := h.Totals()
	if tot.Count != workers*per {
		t.Fatalf("Count = %d, want %d", tot.Count, workers*per)
	}
	if tot.Min != 0 || tot.Max != workers*per-1 {
		t.Fatalf("Min/Max = %d/%d, want 0/%d", tot.Min, tot.Max, workers*per-1)
	}
}

func TestSchemeHistogramsTotals(t *testing.T) {
	sh := NewRegistry().Histograms("x")
	sh.Lifetime.Observe(42)
	sh.Repartitions.Observe(3)
	sh.SalvageDepth.Observe(2)
	sh.ExtraWrites.Observe(7)
	snap := sh.Totals()
	if snap.Lifetime.Count != 1 || snap.Repartitions.Count != 1 ||
		snap.SalvageDepth.Count != 1 || snap.ExtraWrites.Count != 1 {
		t.Fatalf("per-histogram counts wrong: %+v", snap)
	}
	if snap.Lifetime.Max != 42 || snap.SalvageDepth.Max != 2 {
		t.Fatalf("per-histogram extrema wrong: %+v", snap)
	}
}
