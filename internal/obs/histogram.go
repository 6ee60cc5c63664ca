package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of Histogram: bucket 0 holds the
// value 0 (and clamped negatives), bucket i ≥ 1 holds values in
// [2^(i-1), 2^i).  64 value buckets cover the whole non-negative int64
// range, so no observation is ever out of range.
const histBuckets = 65

// Histogram is a lock-free fixed-bucket histogram over non-negative
// int64 observations with logarithmic (power-of-two) bucket boundaries.
// All methods are safe for concurrent use; Observe is a single atomic
// add plus two atomic min/max updates, cheap enough for per-trial (and
// even per-request) recording.  The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // stored as ^v so the zero value means "unset"
	max     atomic.Int64 // stored as v+1 so the zero value means "unset"
}

// bucketIndex maps a value to its bucket: 0 → 0, v ≥ 1 → 1+⌊log₂v⌋.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// BucketHigh returns the inclusive upper bound of bucket i (the last
// bucket's bound saturates at MaxInt64).
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.  Negative values are clamped to zero (they
// cannot occur for the quantities this package records; clamping keeps
// the histogram total consistent with Count).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.extend(v)
}

// extend widens the running min/max to cover v, lock-free.  Encodings
// make the zero value (empty histogram) distinguishable without a
// separate "initialized" flag: min stores ^v (so 0 = unset, since ^v < 0
// for v ≥ 0), max stores v+1 (so 0 = unset).
func (h *Histogram) extend(v int64) {
	for {
		cur := h.min.Load()
		if cur != 0 && ^cur <= v {
			break
		}
		if h.min.CompareAndSwap(cur, ^v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur != 0 && cur-1 >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// Merge folds a snapshot back into the live histogram, bucket-wise.
// This is how internal/engine replays the distributions persisted in a
// cached shard into a run's registry: merging the snapshot of one trial
// range is equivalent to having observed those trials directly (up to
// the histogram's power-of-two bucket resolution, which Observe already
// imposes — bucket boundaries are identical on both paths).
func (h *Histogram) Merge(t HistTotals) {
	if t.Count == 0 {
		return
	}
	for _, b := range t.Buckets {
		h.buckets[bucketIndex(b.Lo)].Add(b.N)
	}
	h.count.Add(t.Count)
	h.sum.Add(t.Sum)
	h.extend(t.Min)
	h.extend(t.Max)
}

// Bucket is one non-empty histogram bucket in snapshot form: N values
// fell in [Lo, Hi].
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// HistTotals is the plain-value snapshot of a Histogram, the form the
// run manifest serializes.  Buckets lists only non-empty buckets in
// ascending value order.
type HistTotals struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Totals snapshots the histogram.  Taken concurrently with Observe the
// snapshot is approximate (counters are read one by one), which is fine
// for live telemetry; quiescent reads are exact.
func (h *Histogram) Totals() HistTotals {
	t := HistTotals{Count: h.count.Load(), Sum: h.sum.Load()}
	if m := h.min.Load(); m != 0 {
		t.Min = ^m
	}
	if m := h.max.Load(); m != 0 {
		t.Max = m - 1
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			t.Buckets = append(t.Buckets, Bucket{Lo: BucketLow(i), Hi: BucketHigh(i), N: n})
		}
	}
	return t
}

// Mean returns the average observed value, or 0 for an empty histogram.
func (t HistTotals) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.Sum) / float64(t.Count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1): the
// inclusive upper bound of the bucket where the cumulative count first
// reaches q·Count.  Resolution is one power of two, the histogram's
// bucket width.
func (t HistTotals) Quantile(q float64) int64 {
	if t.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(t.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range t.Buckets {
		cum += b.N
		if cum >= rank {
			if b.Hi > t.Max {
				return t.Max
			}
			return b.Hi
		}
	}
	return t.Max
}

// Plus returns the merge of two snapshots (bucket-wise sum).
func (t HistTotals) Plus(u HistTotals) HistTotals {
	out := HistTotals{Count: t.Count + u.Count, Sum: t.Sum + u.Sum, Min: t.Min, Max: t.Max}
	if u.Count > 0 && (t.Count == 0 || u.Min < out.Min) {
		out.Min = u.Min
	}
	if u.Count > 0 && (t.Count == 0 || u.Max > out.Max) {
		out.Max = u.Max
	}
	byLo := make(map[int64]Bucket)
	for _, b := range t.Buckets {
		byLo[b.Lo] = b
	}
	for _, b := range u.Buckets {
		if have, ok := byLo[b.Lo]; ok {
			have.N += b.N
			byLo[b.Lo] = have
		} else {
			byLo[b.Lo] = b
		}
	}
	for i := 0; i < histBuckets; i++ {
		if b, ok := byLo[BucketLow(i)]; ok && b.N > 0 {
			out.Buckets = append(out.Buckets, b)
			delete(byLo, BucketLow(i))
		}
	}
	return out
}

// SchemeHistograms is the view of the per-scheme distributions the Monte
// Carlo engine records, the distributional counterpart of
// SchemeCounters: where the counters say how much work a scheme did in
// total, the histograms say how that work (and the resulting lifetimes)
// spread across blocks and requests — the per-block recovery dynamics
// RDIS and SAFER argue are the real cost driver.  Each field is the
// scheme's series of one aegis_scheme_* histogram family
// (Registry.Histograms).
type SchemeHistograms struct {
	// Lifetime is the per-trial lifetime in successful writes (block
	// writes for block studies, page writes for page studies).
	Lifetime *Histogram
	// Repartitions is the number of partition-configuration changes one
	// block instance consumed over its life.
	Repartitions *Histogram
	// SalvageDepth is the number of verification passes a salvaged
	// write request needed before it succeeded (≥ 2: the first pass
	// failed, a later one passed).
	SalvageDepth *Histogram
	// ExtraWrites is the number of extra physical writes (beyond one
	// per request) one block instance issued over its life.
	ExtraWrites *Histogram
}

// HistSnapshot is the plain-value snapshot of SchemeHistograms, the form
// the v2 run manifest serializes.
type HistSnapshot struct {
	Lifetime     HistTotals `json:"lifetime"`
	Repartitions HistTotals `json:"repartitions_per_block"`
	SalvageDepth HistTotals `json:"salvage_depth"`
	ExtraWrites  HistTotals `json:"extra_writes_per_block"`
}

// Totals snapshots all four histograms.
func (h *SchemeHistograms) Totals() HistSnapshot {
	return HistSnapshot{
		Lifetime:     h.Lifetime.Totals(),
		Repartitions: h.Repartitions.Totals(),
		SalvageDepth: h.SalvageDepth.Totals(),
		ExtraWrites:  h.ExtraWrites.Totals(),
	}
}

// Merge folds a snapshot into the live histogram set (see
// Histogram.Merge).
func (h *SchemeHistograms) Merge(s HistSnapshot) {
	h.Lifetime.Merge(s.Lifetime)
	h.Repartitions.Merge(s.Repartitions)
	h.SalvageDepth.Merge(s.SalvageDepth)
	h.ExtraWrites.Merge(s.ExtraWrites)
}

// Plus returns the element-wise merge of two snapshots, the histogram
// counterpart of Totals.Plus.  The shard merger uses it to combine the
// distributions of disjoint trial ranges.
func (s HistSnapshot) Plus(u HistSnapshot) HistSnapshot {
	return HistSnapshot{
		Lifetime:     s.Lifetime.Plus(u.Lifetime),
		Repartitions: s.Repartitions.Plus(u.Repartitions),
		SalvageDepth: s.SalvageDepth.Plus(u.SalvageDepth),
		ExtraWrites:  s.ExtraWrites.Plus(u.ExtraWrites),
	}
}
