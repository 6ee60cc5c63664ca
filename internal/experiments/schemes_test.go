package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseSchemeWire pins the display name of every spec clients send
// today: bench's job mix, aegisload, the README and the serve tests.
// Shard keys and trial seeds hash these names.
func TestParseSchemeWire(t *testing.T) {
	for _, c := range []struct {
		spec string
		bits int
		name string
	}{
		{"aegis:23", 512, "Aegis 23x23"},
		{"aegis:61", 512, "Aegis 9x61"},
		{"aegis:23", 256, "Aegis 12x23"},
		{"aegis:11", 64, "Aegis 6x11"},
		{"aegis-p:23:4", 512, "Aegis-p 23x23 q=4"},
		{"aegis-rw:31", 512, "Aegis-rw 17x31"},
		{"aegis-rw-p:31:5", 512, "Aegis-rw-p 17x31 p=5"},
		{"ecp:6", 512, "ECP6"},
		{"safer:32", 512, "SAFER32"},
		{"safer-cache:64", 512, "SAFER64-cache"},
		{"rdis:3", 512, "RDIS-3"},
		{"hamming", 512, "Hamming(72,64)"},
	} {
		f, err := ParseScheme(c.spec, c.bits)
		if err != nil {
			t.Errorf("ParseScheme(%q, %d): %v", c.spec, c.bits, err)
			continue
		}
		if f.Name() != c.name || f.BlockBits() != c.bits {
			t.Errorf("ParseScheme(%q, %d) = %s at %d bits, want %s", c.spec, c.bits, f.Name(), f.BlockBits(), c.name)
		}
	}
}

// TestParseSchemeRejects covers malformed specs and the parameter
// bounds: a spec that would exhaust memory or fail to build is an error
// at parse time, never at trial time.
func TestParseSchemeRejects(t *testing.T) {
	for _, c := range []struct {
		spec string
		bits int
		want string
	}{
		{"", 512, "unknown scheme family"},
		{"aegis-9x61", 512, "unknown scheme family"},
		{"aegis", 512, "takes 1 parameter"},
		{"aegis:61:9", 512, "takes 1 parameter"},
		{"hamming:7", 512, "takes 0 parameter"},
		{"aegis:many", 512, "not an integer"},
		{"aegis:24", 512, "not prime"},
		{"aegis-rw-p:61:4611686018427387904", 512, "pointer budget"},
		{"aegis-p:61:62", 512, "pointer budget"},
		{"aegis:293", 512, "group-mask table"},
		{"aegis:509", 512, "group-mask table"},
		{"aegis:1009", 512, "group-mask table"},
		{"aegis:10007", 512, "group-mask table"},
		{"aegis-rw:4611686018427387847", 512, "group-mask table"},
		{"ecp:513", 512, "exceeds the block's 512 cells"},
		{"ecp:-1", 512, "negative"},
		{"rdis:1000000", 512, "exceeds the block's 512 cells"},
		{"safer:48", 512, "group count"},
		{"hamming", 100, "multiple of 64"},
		{"aegis:61", 0, "block size"},
		{"aegis:61", MaxBlockBits + 1, "block size"},
	} {
		_, err := ParseScheme(c.spec, c.bits)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScheme(%q, %d) = %v, want an error containing %q", c.spec, c.bits, err, c.want)
		}
	}
	// The bounds are inclusive: a pointer per group, an entry per cell;
	// 283 is the largest prime B whose mask table fits at 512 bits.
	for _, spec := range []string{"aegis:283", "aegis-p:61:61", "aegis-rw-p:61:61", "ecp:512", "rdis:512"} {
		if _, err := ParseScheme(spec, 512); err != nil {
			t.Errorf("ParseScheme(%q, 512): %v", spec, err)
		}
	}
}

// FuzzParseScheme feeds arbitrary specs to the grammar at three block
// sizes: no input may panic, and an accepted spec's factory must build
// an instance.
func FuzzParseScheme(f *testing.F) {
	for _, fam := range families {
		spec := fam.name
		for i := range fam.params {
			spec += fmt.Sprintf(":%d", []int{61, 9}[i])
		}
		f.Add(spec)
	}
	for _, spec := range []string{"", ":", "aegis:", "aegis:-7", "aegis:283", "ecp:64", "rdis:0", "safer:8", "aegis-rw-p:11:99"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, bits := range []int{64, 256, 512} {
			fac, err := ParseScheme(spec, bits)
			if err != nil {
				continue
			}
			if fac.BlockBits() != bits || fac.Name() == "" {
				t.Fatalf("ParseScheme(%q, %d) = %q at %d bits", spec, bits, fac.Name(), fac.BlockBits())
			}
			if fac.New() == nil {
				t.Fatalf("ParseScheme(%q, %d): New returned nil", spec, bits)
			}
		}
	})
}
