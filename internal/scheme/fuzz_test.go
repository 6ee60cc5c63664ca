package scheme_test

import (
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// FuzzWriteRead drives every looped scheme (loopedCases, finite fail
// caches included) through a few writes with fuzz-chosen fault patterns
// and data.  Every successful write must read back exactly, and the
// operation counters must respect the protocol: one verification read
// per physical write, at most N+1 passes per request, at least one pass
// per successful request, and at most one salvage per request (Aegis-p
// can reject a write the loop salvaged).
func FuzzWriteRead(f *testing.F) {
	cases := loopedCases()
	f.Add(uint8(0), uint16(3), uint64(0xdeadbeef), uint64(0x12345678))
	for i := range cases {
		f.Add(uint8(i), uint16(10+i), uint64(0x0123456789abcdef), uint64(0xfedcba9876543210))
	}
	f.Fuzz(func(t *testing.T, which uint8, faultSeed uint16, dataLo, dataHi uint64) {
		c := cases[int(which)%len(cases)]
		s := c.factory().New()
		const n, writes = 512, 4
		blk := pcm.NewImmortalBlock(n)
		lcg := uint64(faultSeed) + 1
		inject := func(k int) {
			for i := 0; i < k; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				blk.InjectFault(int(lcg>>33)%n, lcg&1 == 1)
			}
		}
		// Up to 10 faults before the first write, then one more before
		// each later write so the schemes must discover or re-plan.
		inject(int(faultSeed % 11))
		words := make([]uint64, n/64)
		succeeded := int64(0)
		for w := 0; w < writes; w++ {
			if w > 0 {
				inject(1)
			}
			for i := range words {
				words[i] = dataLo ^ (dataHi << uint(w+i)) ^ uint64(i*w)
			}
			data := bitvec.NewFromWords(n, words)
			if err := s.Write(blk, data); err != nil {
				break // unrecoverable fault pattern: acceptable, and final
			}
			succeeded++
			if !s.Read(blk, nil).Equal(data) {
				t.Fatalf("%s: write %d reads back differently", c.name, w)
			}
		}
		st := s.(scheme.OpReporter).OpStats()
		if st.RawWrites != st.VerifyReads {
			t.Errorf("%s: %d raw writes but %d verify reads", c.name, st.RawWrites, st.VerifyReads)
		}
		// A request the plan rejects before its first pass writes
		// nothing, so only successful requests must have written.
		if st.RawWrites < succeeded || st.RawWrites > st.Requests*(n+1) {
			t.Errorf("%s: %d raw writes outside [%d, %d]", c.name, st.RawWrites, succeeded, st.Requests*(n+1))
		}
		if st.Salvages > st.Requests || st.Requests > writes {
			t.Errorf("%s: %+v after %d successful writes", c.name, st, succeeded)
		}
	})
}
