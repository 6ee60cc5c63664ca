package core

import (
	"testing"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
)

// FuzzUnmarshalBits feeds arbitrary metadata bytes to the codec: decode
// must either reject the input or leave the scheme fully functional.
func FuzzUnmarshalBits(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fac := MustFactory(512, 23)
		ag := fac.New().(*Aegis)
		want := ag.OverheadBits() // 28 bits
		v := bitvec.New(want)
		for i := 0; i < want && i/8 < len(raw); i++ {
			v.Set(i, raw[i/8]>>(uint(i)%8)&1 == 1)
		}
		if err := ag.UnmarshalBits(v); err != nil {
			return // rejected cleanly
		}
		// Accepted state must round-trip and serve writes.
		if !ag.MarshalBits().Equal(v) {
			t.Fatal("accepted metadata does not round-trip")
		}
		blk := pcm.NewImmortalBlock(512)
		data := bitvec.New(512)
		data.Set(100, true)
		if err := ag.Write(blk, data); err != nil {
			t.Fatalf("write after unmarshal: %v", err)
		}
		if !ag.Read(blk, nil).Equal(data) {
			t.Fatal("read differs after unmarshal")
		}
	})
}
