package safer

import (
	"errors"
	"slices"
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
	"aegis/internal/xrand"
)

// planSizes are the block sizes the kernel checks cover: shorter than
// one word, one word, and several words with fields at address bits 6
// and above selecting words.
var planSizes = []int{16, 64, 128, 512, 1024}

// separatesWR is the reference form of the field-search test: no W
// fault's address agrees with an R fault's under mask.
func separatesWR(faults []failcache.Fault, wrong []bool, mask int) bool {
	for i := range faults {
		if !wrong[i] {
			continue
		}
		for j := range faults {
			if !wrong[j] && (faults[i].Pos^faults[j].Pos)&mask == 0 {
				return false
			}
		}
	}
	return true
}

// refSelectFields is the reference field search: the lexicographically
// first m-subset of the addrBits address bits that separatesWR accepts,
// tested pair by pair.  No faults keep the current fields.
func refSelectFields(current []int, faults []failcache.Fault, wrong []bool, m, addrBits int) ([]int, bool) {
	if len(faults) == 0 {
		return current, true
	}
	subset := make([]int, m)
	for i := range subset {
		subset[i] = i
	}
	for {
		if separatesWR(faults, wrong, fieldMask(subset)) {
			return subset, true
		}
		i := m - 1
		for i >= 0 && subset[i] == addrBits-m+i {
			i--
		}
		if i < 0 {
			return nil, false
		}
		subset[i]++
		for j := i + 1; j < m; j++ {
			subset[j] = subset[j-1] + 1
		}
	}
}

// refFlip is the reference inverted-cell mask: each cell projected onto
// the fields on its own.
func refFlip(s *partition) *bitvec.Vector {
	v := bitvec.New(s.n)
	for x := 0; x < s.n; x++ {
		if s.inv.Get(s.group(x)) {
			v.Set(x, true)
		}
	}
	return v
}

// planned is one variant's state after a write, for checkPlan.
type planned interface {
	codecScheme
	state() *partition
}

func (s *partition) state() *partition { return s }

// checkPlan writes one random datum into an n-bit block with k random
// faults under SAFER-cache and SAFER with 2^m groups, and checks the
// kernels against their references: the field search against
// refSelectFields, the inverted-cell mask against refFlip, the read
// path against the datum, and a decode of the written state into an
// instance that wrote something else before.  It reports whether a
// write succeeded with an inverted group under a field at address bit 6
// or above, the word-selecting path.
func checkPlan(t *testing.T, n, m, k int, seed int64) (wordPath bool) {
	t.Helper()
	rng := xrand.New(seed)
	blk := pcm.NewImmortalBlock(n)
	faults := make([]failcache.Fault, k)
	for i, p := range rng.Perm(n)[:k] {
		faults[i] = failcache.Fault{Pos: p, Val: rng.Intn(2) == 0}
		blk.InjectFault(p, faults[i].Val)
	}
	data := bitvec.Random(n, rng)
	wrong := make([]bool, k)
	for i, f := range faults {
		wrong[i] = f.Val != data.Get(f.Pos)
	}

	newCached := func(id uint64) planned {
		c, err := NewCached(n, 1<<m, failcache.Perfect{}.View(id))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	newPlain := func(uint64) planned {
		s, err := New(n, 1<<m)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	c := newCached(0).(*Cached)
	want, wantOK := refSelectFields(c.fields, faults, wrong, m, c.addrBits)
	want = slices.Clone(want)
	got, gotOK := c.selectFields(faults, wrong)
	if gotOK != wantOK || !slices.Equal(got, want) {
		t.Fatalf("n=%d m=%d k=%d seed=%d: selectFields = %v,%v, reference %v,%v", n, m, k, seed, got, gotOK, want, wantOK)
	}

	for _, v := range []struct {
		name string
		make func(uint64) planned
	}{{"SAFER-cache", newCached}, {"SAFER", newPlain}} {
		s := v.make(0)
		err := s.Write(blk, data)
		if v.name == "SAFER-cache" && (err == nil) != wantOK {
			t.Fatalf("%s n=%d m=%d k=%d seed=%d: write err %v, reference search ok=%v", v.name, n, m, k, seed, err, wantOK)
		}
		if err != nil {
			if !errors.Is(err, scheme.ErrUnrecoverable) {
				t.Fatalf("%s: unexpected error %v", v.name, err)
			}
			continue
		}
		p := s.state()
		if !p.inverted().Equal(refFlip(p)) {
			t.Fatalf("%s n=%d m=%d k=%d seed=%d: inverted-cell mask differs from the per-cell projection", v.name, n, m, k, seed)
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("%s n=%d m=%d k=%d seed=%d: read differs", v.name, n, m, k, seed)
		}
		if p.inv.Any() && slices.ContainsFunc(p.fields, func(pos int) bool { return pos >= 6 }) {
			wordPath = true
		}

		// A used instance: its own mask is built for other fields and
		// inversions, and decoding must not leave it in place.
		used := v.make(1)
		other := pcm.NewImmortalBlock(n)
		for _, p := range rng.Perm(n)[:k] {
			other.InjectFault(p, rng.Intn(2) == 0)
		}
		otherData := bitvec.Random(n, rng)
		if used.Write(other, otherData) == nil {
			used.Read(other, nil)
		}
		if err := used.UnmarshalBits(s.MarshalBits()); err != nil {
			t.Fatalf("%s: written state rejected: %v", v.name, err)
		}
		if !used.Read(blk, nil).Equal(data) {
			t.Fatalf("%s n=%d m=%d k=%d seed=%d: read after decoding into a used instance differs", v.name, n, m, k, seed)
		}
	}
	return wordPath
}

// planCase maps fuzz inputs onto a block size, group count and fault
// count: m spans 0…log2 n and up to 40 faults (all cells of a 16-bit
// block) are injected.
func planCase(size, groups, faults uint8) (n, m, k int) {
	n = planSizes[int(size)%len(planSizes)]
	m = int(groups) % (log2(n) + 1)
	k = int(faults) % (min(n, 40) + 1)
	return n, m, k
}

// FuzzSAFERPlan checks the SAFER partition kernels against their
// per-pair and per-cell references for fuzz-chosen sizes, group counts,
// faults and data.
func FuzzSAFERPlan(f *testing.F) {
	for i := range planSizes {
		f.Add(uint8(i), uint8(6), uint8(12), int64(i))
		f.Add(uint8(i), uint8(4), uint8(30), int64(100+i))
	}
	f.Fuzz(func(t *testing.T, size, groups, faults uint8, seed int64) {
		n, m, k := planCase(size, groups, faults)
		checkPlan(t, n, m, k, seed)
	})
}

// TestPlanKernelsMatchReferences runs checkPlan over a spread of cases
// at every size, and requires the multi-word sizes to have exercised
// the word-selecting path.
func TestPlanKernelsMatchReferences(t *testing.T) {
	for _, n := range planSizes {
		wordPath := false
		for seed := int64(0); seed < 60; seed++ {
			m := int(seed) % (log2(n) + 1)
			k := int(seed*7) % (min(n, 40) + 1)
			if checkPlan(t, n, m, k, seed) {
				wordPath = true
			}
		}
		if n > 64 && !wordPath {
			t.Errorf("n=%d: no case inverted a group under a field at address bit 6 or above", n)
		}
	}
}
