package scheme_test

import (
	"testing"

	"aegis/internal/aegisrw"
	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/ecp"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/xrand"
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

// codecCase is one metadata layout FuzzMetadata covers.
type codecCase struct {
	name    string
	factory func() scheme.Factory
}

// codecCases lists every scheme with a metadata codec.
func codecCases() []codecCase {
	return []codecCase{
		{"aegis-9x23", func() scheme.Factory { return core.MustFactory(512, 23) }},
		{"aegis-rw-256-23", func() scheme.Factory { return aegisrw.MustRWFactory(256, 23, failcache.Perfect{}) }},
		{"aegis-rw-p-256-23-p3", func() scheme.Factory { return aegisrw.MustRWPFactory(256, 23, 3, failcache.Perfect{}) }},
		{"aegis-p-9x23-q4", func() scheme.Factory { return core.MustPFactory(512, 23, 4) }},
		{"safer-32", func() scheme.Factory { return safer.MustFactory(512, 32) }},
		{"safer-32-cache", func() scheme.Factory { return safer.MustCachedFactory(512, 32, failcache.Perfect{}) }},
		{"ecp-6", func() scheme.Factory { return ecp.MustFactory(512, 6) }},
	}
}

// usedInstance returns a scheme of case c that has stored data into a
// block with two stuck cells, through three writes.
func usedInstance(t testing.TB, c codecCase) (scheme.Scheme, *pcm.Block, *bitvec.Vector) {
	s := c.factory().New()
	n := c.factory().BlockBits()
	blk := pcm.NewImmortalBlock(n)
	blk.InjectFault(17, true)
	blk.InjectFault(n-40, false)
	rng := xrand.New(7)
	data := bitvec.New(n)
	for w := 0; w < 3; w++ {
		bitvec.RandomInto(data, rng)
		if err := s.Write(blk, data); err != nil {
			t.Fatalf("%s: write %d: %v", c.name, w, err)
		}
	}
	return s, blk, data
}

// bitsFromBytes builds an n-bit vector from raw bytes, LSB-first; bits
// past the end of raw are zero.
func bitsFromBytes(n int, raw []byte) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n && i/8 < len(raw); i++ {
		v.Set(i, raw[i/8]>>(uint(i)%8)&1 == 1)
	}
	return v
}

// bytesOf is the inverse of bitsFromBytes.
func bytesOf(v *bitvec.Vector) []byte {
	raw := make([]byte, (v.Len()+7)/8)
	for i := range raw {
		raw[i] = byte(v.Words()[i/8] >> (8 * uint(i%8)))
	}
	return raw
}

// FuzzMetadata feeds arbitrary metadata to every codec (codecCases),
// decoding it into a fresh instance and into one that has served
// writes.  Decoding must not depend on the prior state; accepted input
// must re-encode to the identical bits and leave a fresh instance able
// to serve writes; rejected input must leave the used instance's reads
// unchanged; and decoding its own metadata must leave them unchanged
// too.  The raw bytes also place stuck-at-1 cells under an all-zero
// write: when that write kills the block, the codec must accept the
// dead block's own metadata.
func FuzzMetadata(f *testing.F) {
	cases := codecCases()
	for i := range cases {
		s, _, _ := usedInstance(f, cases[i])
		f.Add(uint8(i), bytesOf(s.(scheme.MetadataCodec).MarshalBits()))
	}
	// One input per codec with 8 stuck cells spread over the block.
	spread := make([]byte, 8)
	for i := range spread {
		spread[i] = byte(i * 256 / len(spread))
	}
	for i := range cases {
		f.Add(uint8(i), spread)
	}
	f.Fuzz(func(t *testing.T, which uint8, raw []byte) {
		c := cases[int(which)%len(cases)]
		fresh := c.factory().New()
		v := bitsFromBytes(fresh.OverheadBits(), raw)
		freshErr := fresh.(scheme.MetadataCodec).UnmarshalBits(v)
		if freshErr == nil {
			if !fresh.(scheme.MetadataCodec).MarshalBits().Equal(v) {
				t.Fatalf("%s: accepted metadata does not re-encode identically", c.name)
			}
			n := c.factory().BlockBits()
			blk, data := pcm.NewImmortalBlock(n), bitvec.New(n)
			data.Set(100, true)
			if err := fresh.Write(blk, data); err != nil {
				t.Fatalf("%s: write after decode: %v", c.name, err)
			}
			if !fresh.Read(blk, nil).Equal(data) {
				t.Fatalf("%s: read differs after decode", c.name)
			}
		}

		used, blk, data := usedInstance(t, c)
		codec := used.(scheme.MetadataCodec)
		own := codec.MarshalBits()
		err := codec.UnmarshalBits(v)
		switch {
		case (err == nil) != (freshErr == nil):
			t.Fatalf("%s: decode into a used instance gives %v, into a fresh one %v", c.name, err, freshErr)
		case err == nil && !codec.MarshalBits().Equal(v):
			t.Fatalf("%s: accepted metadata does not re-encode identically in a used instance", c.name)
		case err != nil && !used.Read(blk, nil).Equal(data):
			t.Fatalf("%s: rejected metadata changed what the used instance reads", c.name)
		}
		if err := codec.UnmarshalBits(own); err != nil {
			t.Fatalf("%s: own metadata rejected: %v", c.name, err)
		}
		if !used.Read(blk, nil).Equal(data) {
			t.Fatalf("%s: read differs after decoding its own metadata", c.name)
		}

		n := c.factory().BlockBits()
		dead, deadBlk := c.factory().New(), pcm.NewImmortalBlock(n)
		for _, b := range raw {
			deadBlk.InjectFault(int(b)*n/256, true)
		}
		if dead.Write(deadBlk, bitvec.New(n)) != nil {
			meta := dead.(scheme.MetadataCodec).MarshalBits()
			if err := c.factory().New().(scheme.MetadataCodec).UnmarshalBits(meta); err != nil {
				t.Fatalf("%s: dead block's own metadata rejected: %v", c.name, err)
			}
		}
	})
}
