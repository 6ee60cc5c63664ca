package scheme_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aegis/internal/aegisrw"
	"aegis/internal/bitvec"
	"aegis/internal/core"
	"aegis/internal/dist"
	"aegis/internal/failcache"
	"aegis/internal/pcm"
	"aegis/internal/rdis"
	"aegis/internal/safer"
	"aegis/internal/scheme"
	"aegis/internal/sim"
	"aegis/internal/xrand"
)

// updatePins rewrites testdata/write_pins.json from the current code:
// go test ./internal/scheme/ -run TestWritePins -update
var updatePins = flag.Bool("update", false, "rewrite testdata/write_pins.json")

const pinsFile = "testdata/write_pins.json"

// pinCase is one scheme configuration pinned by TestWritePins.
type pinCase struct {
	name    string
	factory func() scheme.Factory
}

// loopedCases lists the schemes that run the write–verify–retry
// protocol, with the fail-cache family under both a perfect cache and a
// direct-mapped one small enough that faults evict each other and must
// be rediscovered by verification reads.
func loopedCases() []pinCase {
	dm := func() failcache.Provider { return failcache.NewDirectMapped(8) }
	return []pinCase{
		{"aegis-9x61", func() scheme.Factory { return core.MustFactory(512, 61) }},
		{"aegis-p-9x61-q4", func() scheme.Factory { return core.MustPFactory(512, 61, 4) }},
		{"safer-64", func() scheme.Factory { return safer.MustFactory(512, 64) }},
		{"safer-32-cache-perfect", func() scheme.Factory { return safer.MustCachedFactory(512, 32, failcache.Perfect{}) }},
		{"safer-32-cache-dm8", func() scheme.Factory { return safer.MustCachedFactory(512, 32, dm()) }},
		{"aegis-rw-9x61-perfect", func() scheme.Factory { return aegisrw.MustRWFactory(512, 61, failcache.Perfect{}) }},
		{"aegis-rw-9x61-dm8", func() scheme.Factory { return aegisrw.MustRWFactory(512, 61, dm()) }},
		{"aegis-rw-p-9x61-p2-perfect", func() scheme.Factory { return aegisrw.MustRWPFactory(512, 61, 2, failcache.Perfect{}) }},
		{"aegis-rw-p-9x61-p2-dm8", func() scheme.Factory { return aegisrw.MustRWPFactory(512, 61, 2, dm()) }},
		{"rdis-3-perfect", func() scheme.Factory { return rdis.MustFactory(512, 3, failcache.Perfect{}) }},
		{"rdis-3-dm8", func() scheme.Factory { return rdis.MustFactory(512, 3, dm()) }},
	}
}

// pinTrial is the pinned outcome of one block written to death.
type pinTrial struct {
	Mode   string         `json:"mode"`
	Writes int            `json:"writes"`
	Events int            `json:"events"`
	SHA256 string         `json:"sha256"`
	Ops    scheme.OpStats `json:"ops"`
	// Meta is the hex of the block's metadata after the trial's last
	// successful write, for schemes with a metadata codec.
	Meta string `json:"meta,omitempty"`
}

// hashTracer folds every event into a running SHA-256.
type hashTracer struct {
	h hash.Hash
	n int
}

func (r *hashTracer) TraceEvent(e scheme.TraceEvent) {
	fmt.Fprintf(r.h, "%d %d %d %d %d %d %s\n", e.Kind, e.From, e.To, e.Groups, e.Passes, e.Faults, e.Cause)
	r.n++
}

// pinModes are the three ways a trial kills its block: cells wearing
// out mid-request (pulse wear, so verification passes discover faults
// that appeared during the write), cells wearing out at request end (the
// simulator's default wear model), and faults injected one per write
// into an immortal block (Figure 8's setting).
var pinModes = []string{"pulse", "request", "inject"}

const pinMaxWrites = 20000

// runPinTrial writes random data into a fresh block until the scheme
// reports it unrecoverable, checking every successful write reads back.
func runPinTrial(t *testing.T, s scheme.Scheme, mode string, seed int64) pinTrial {
	t.Helper()
	tr := &hashTracer{h: sha256.New()}
	s.(scheme.Traceable).SetTracer(tr)
	rng := xrand.New(seed)
	const n = 512
	var blk *pcm.Block
	if mode == "inject" {
		blk = pcm.NewImmortalBlock(n)
	} else {
		blk = pcm.NewBlock(n, dist.Normal{MeanLife: 60, CoV: 0.25}, rng)
	}
	data := bitvec.New(n)
	codec, _ := s.(scheme.MetadataCodec)
	meta := ""
	writes := 0
	for ; writes < pinMaxWrites; writes++ {
		if mode == "inject" {
			p := rng.Intn(n)
			for blk.IsStuck(p) {
				p = rng.Intn(n)
			}
			blk.InjectFault(p, rng.Intn(2) == 1)
		}
		bitvec.RandomInto(data, rng)
		var err error
		if mode == "request" {
			err = sim.WriteRequest(s, blk, data)
		} else {
			err = s.Write(blk, data)
		}
		if err != nil {
			if !errors.Is(err, scheme.ErrUnrecoverable) {
				t.Fatalf("write %d: %v", writes, err)
			}
			break
		}
		if !s.Read(blk, nil).Equal(data) {
			t.Fatalf("%s write %d reads back differently", mode, writes)
		}
		if codec != nil {
			meta = metaHex(codec.MarshalBits())
		}
	}
	if writes == pinMaxWrites {
		t.Fatalf("%s block survived %d writes", mode, pinMaxWrites)
	}
	return pinTrial{
		Mode:   mode,
		Writes: writes,
		Events: tr.n,
		SHA256: hex.EncodeToString(tr.h.Sum(nil)),
		Ops:    s.(scheme.OpReporter).OpStats(),
		Meta:   meta,
	}
}

// metaHex renders a metadata vector as its words in hex, low word first.
func metaHex(v *bitvec.Vector) string {
	var b strings.Builder
	for _, w := range v.Words() {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// TestWritePins writes blocks to death at fixed seeds under every looped
// scheme and compares each trial's decision-event digest, lifetime,
// final operation counters and last metadata encoding against
// testdata/write_pins.json.  One
// instance serves all trials of a case through Reset, so the pins also
// cover instance reuse and, for the fail-cache family, view renewal.
func TestWritePins(t *testing.T) {
	got := map[string][]pinTrial{}
	for _, c := range loopedCases() {
		s := c.factory().New()
		for i, mode := range pinModes {
			if i > 0 {
				s.(scheme.Resettable).Reset()
			}
			got[c.name] = append(got[c.name], runPinTrial(t, s, mode, int64(100+i)))
		}
	}
	if *updatePins {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string][]pinTrial
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("pin file has %d cases, test runs %d", len(want), len(got))
	}
	for name, trials := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned trials", name)
			continue
		}
		if len(w) != len(trials) {
			t.Errorf("%s: %d pinned trials, ran %d", name, len(w), len(trials))
			continue
		}
		for i := range trials {
			if trials[i] != w[i] {
				t.Errorf("%s trial %d:\n got  %+v\n want %+v", name, i, trials[i], w[i])
			}
		}
	}
}
