package ecc

import (
	"fmt"

	"aegis/internal/bitvec"
	"aegis/internal/pcm"
	"aegis/internal/scheme"
)

// Scheme protects a data block with one (72,64) SEC-DED codeword per
// 64-bit word.  Against permanent stuck-at faults this corrects at most
// one stuck-at-Wrong cell per word: the moment a write leaves two wrong
// cells in the same word, the block is dead.  Check bits live in the
// per-block overhead area and, like all overhead storage in this
// repository's model, do not wear (DESIGN.md).
type Scheme struct {
	n      int
	checks []uint8
	errs   *bitvec.Vector
}

var (
	_ scheme.Scheme     = (*Scheme)(nil)
	_ scheme.Resettable = (*Scheme)(nil)
)

// NewScheme returns a SEC-DED scheme for an n-bit block (n must be a
// multiple of 64).
func NewScheme(n int) (*Scheme, error) {
	if n <= 0 || n%WordBits != 0 {
		return nil, fmt.Errorf("ecc: block size %d is not a multiple of %d", n, WordBits)
	}
	return &Scheme{
		n:      n,
		checks: make([]uint8, n/WordBits),
		errs:   bitvec.New(n),
	}, nil
}

// Name implements scheme.Scheme.
func (s *Scheme) Name() string { return "Hamming(72,64)" }

// OverheadBits implements scheme.Scheme: 8 check bits per 64-bit word,
// the 12.5 % yardstick of §3.2.
func (s *Scheme) OverheadBits() int { return CheckBits * (s.n / WordBits) }

// Write implements scheme.Scheme.
func (s *Scheme) Write(blk *pcm.Block, data *bitvec.Vector) error {
	if data.Len() != s.n {
		panic(fmt.Sprintf("ecc: write of %d bits into %d-bit scheme", data.Len(), s.n))
	}
	blk.WriteRaw(data)
	blk.Verify(data, s.errs)
	// One wrong cell per word is repairable at read time; two are not.
	for _, word := range s.errs.Words() {
		if word&(word-1) != 0 {
			return scheme.ErrUnrecoverable
		}
	}
	for w, word := range data.Words() {
		s.checks[w] = Encode(word)
	}
	return nil
}

// Read implements scheme.Scheme.
func (s *Scheme) Read(blk *pcm.Block, dst *bitvec.Vector) *bitvec.Vector {
	dst = blk.Read(dst)
	words := dst.Words()
	for w := range words {
		corrected, res := Decode(words[w], s.checks[w])
		if res != Uncorrectable {
			words[w] = corrected
		}
	}
	return dst
}

// Reset implements scheme.Resettable: no check bits stored.  errs is
// scratch that every Write overwrites.
func (s *Scheme) Reset() { clear(s.checks) }

// Factory builds SEC-DED scheme instances.
type Factory struct{ N int }

// NewFactory validates the block size and returns a factory.
func NewFactory(n int) (*Factory, error) {
	if _, err := NewScheme(n); err != nil {
		return nil, err
	}
	return &Factory{N: n}, nil
}

// MustFactory is NewFactory that panics on error.
func MustFactory(n int) *Factory {
	f, err := NewFactory(n)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements scheme.Factory.
func (*Factory) Name() string { return "Hamming(72,64)" }

// BlockBits implements scheme.Factory.
func (f *Factory) BlockBits() int { return f.N }

// OverheadBits implements scheme.Factory.
func (f *Factory) OverheadBits() int { return CheckBits * (f.N / WordBits) }

// New implements scheme.Factory.
func (f *Factory) New() scheme.Scheme {
	s, err := NewScheme(f.N)
	if err != nil {
		panic(err)
	}
	return s
}

var _ scheme.Factory = (*Factory)(nil)
