package xrand

import (
	"math/rand"
	"testing"
)

// The tests in this file are the substrate's contract: for every seed
// and every method the repository's hot paths use, xrand.Rand must
// produce exactly the value math/rand's rand.New(rand.NewSource(seed))
// produces.  The golden files, shard cache keys and the
// scalar↔sliced↔sharded↔cluster byte-identity suites all depend on it.

// TestStreamUint64 pins the raw generator word stream across many
// seeds, including the Seed normalization edge cases (0, negatives,
// multiples of 2^31-1).
func TestStreamUint64(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, int32max, int32max + 1, -int32max,
		1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)}
	for s := int64(2); s < 500; s++ {
		seeds = append(seeds, s*s*31+s)
	}
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		x := New(seed)
		for i := 0; i < 700; i++ { // crosses the 607-word state wrap
			if g, w := x.Uint64(), std.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand = %#x", seed, i, g, w)
			}
		}
	}
}

// TestStreamMethods walks every scalar method in lockstep with
// math/rand across 1000 seeds, interleaving draws so cross-method state
// handoff is covered too.
func TestStreamMethods(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		std := rand.New(rand.NewSource(seed))
		x := New(seed)
		for i := 0; i < 40; i++ {
			if g, w := x.Int63(), std.Int63(); g != w {
				t.Fatalf("seed %d: Int63 = %d, want %d", seed, g, w)
			}
			if g, w := x.Uint32(), std.Uint32(); g != w {
				t.Fatalf("seed %d: Uint32 = %d, want %d", seed, g, w)
			}
			if g, w := x.Int31(), std.Int31(); g != w {
				t.Fatalf("seed %d: Int31 = %d, want %d", seed, g, w)
			}
			if g, w := x.Int(), std.Int(); g != w {
				t.Fatalf("seed %d: Int = %d, want %d", seed, g, w)
			}
			n := int64(i)*7919 + 3 // mixes power-of-two and odd moduli
			if g, w := x.Int63n(n), std.Int63n(n); g != w {
				t.Fatalf("seed %d: Int63n(%d) = %d, want %d", seed, n, g, w)
			}
			if g, w := x.Int31n(int32(n)), std.Int31n(int32(n)); g != w {
				t.Fatalf("seed %d: Int31n(%d) = %d, want %d", seed, n, g, w)
			}
			if g, w := x.Intn(int(n)), std.Intn(int(n)); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, n, g, w)
			}
			if g, w := x.Intn(64), std.Intn(64); g != w {
				t.Fatalf("seed %d: Intn(64) = %d, want %d", seed, g, w)
			}
			if g, w := x.Float64(), std.Float64(); g != w {
				t.Fatalf("seed %d: Float64 = %v, want %v", seed, g, w)
			}
			if g, w := x.Float32(), std.Float32(); g != w {
				t.Fatalf("seed %d: Float32 = %v, want %v", seed, g, w)
			}
		}
	}
}

// TestStreamNormFloat64 draws enough normals per seed to exercise the
// ziggurat's rejection paths (wedge comparisons and, rarely, the base
// strip's tail) and then checks the generators land in the same state.
func TestStreamNormFloat64(t *testing.T) {
	draws := 2000
	if testing.Short() {
		draws = 200
	}
	for seed := int64(0); seed < 1000; seed++ {
		std := rand.New(rand.NewSource(seed))
		x := New(seed)
		for i := 0; i < draws; i++ {
			if g, w := x.NormFloat64(), std.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
		}
		if g, w := x.Uint64(), std.Uint64(); g != w {
			t.Fatalf("seed %d: post-normal state diverged: %#x vs %#x", seed, g, w)
		}
	}
}

// TestStreamNormTail hammers NormFloat64 on one seed long enough that
// the base-strip tail path (i == 0 with |j| >= kn[0], probability
// ~2.7e-4 per draw) is hit many times.
func TestStreamNormTail(t *testing.T) {
	draws := 200000
	if testing.Short() {
		draws = 20000
	}
	std := rand.New(rand.NewSource(12345))
	x := New(12345)
	tails := 0
	for i := 0; i < draws; i++ {
		g, w := x.NormFloat64(), std.NormFloat64()
		if g != w {
			t.Fatalf("draw %d: NormFloat64 = %v, want %v", i, g, w)
		}
		if g > rn || g < -rn {
			tails++
		}
	}
	if tails == 0 {
		t.Fatalf("no tail samples in %d draws; tail path untested", draws)
	}
}

// TestPermIntoMatchesPerm pins PermInto to Perm draw for draw: the
// same permutation for every n, even into a dirty buffer, and the same
// generator state afterwards.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 0, 600)
	for n := 0; n <= 600; n++ {
		a, b := New(int64(n)), New(int64(n))
		want := a.Perm(n)
		buf = buf[:n]
		for i := range buf {
			buf[i] = -1 - i
		}
		got := b.PermInto(buf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto[%d] = %d, Perm = %d", n, i, got[i], want[i])
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("n=%d: next draw after Perm %d, after PermInto %d", n, x, y)
		}
	}
}

// TestStreamPermShuffle pins Perm and Shuffle, which both consume draws
// in an order frozen by Go 1 (including Perm's useless i=0 draw).
func TestStreamPermShuffle(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		std := rand.New(rand.NewSource(seed))
		x := New(seed)
		n := int(seed%97) + 2
		gp, wp := x.Perm(n), std.Perm(n)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("seed %d: Perm(%d)[%d] = %d, want %d", seed, n, i, gp[i], wp[i])
			}
		}
		ga := make([]int, n)
		wa := make([]int, n)
		for i := range ga {
			ga[i], wa[i] = i, i
		}
		x.Shuffle(n, func(i, j int) { ga[i], ga[j] = ga[j], ga[i] })
		std.Shuffle(n, func(i, j int) { wa[i], wa[j] = wa[j], wa[i] })
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("seed %d: Shuffle(%d)[%d] = %d, want %d", seed, n, i, ga[i], wa[i])
			}
		}
	}
}

// TestFill pins the bulk path: Fill(dst) must equal len(dst) sequential
// Uint64 draws, across buffer sizes that straddle the 607-word state
// length, and must leave the generator in the same state.
func TestFill(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 64, 606, 607, 608, 1300} {
		for seed := int64(0); seed < 50; seed++ {
			std := rand.New(rand.NewSource(seed))
			x := New(seed)
			dst := make([]uint64, size)
			x.Fill(dst)
			for i, g := range dst {
				if w := std.Uint64(); g != w {
					t.Fatalf("seed %d size %d: Fill[%d] = %#x, want %#x", seed, size, i, g, w)
				}
			}
			if g, w := x.Uint64(), std.Uint64(); g != w {
				t.Fatalf("seed %d size %d: post-Fill state diverged", seed, size)
			}
		}
	}
}

// TestZipf pins the vendored Zipf generator against rand.Zipf over the
// same seeds and parameters the workload package uses.
func TestZipf(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		std := rand.New(rand.NewSource(seed))
		x := New(seed)
		wz := rand.NewZipf(std, 1.2, 1, 1023)
		gz := NewZipf(x, 1.2, 1, 1023)
		for i := 0; i < 200; i++ {
			if g, w := gz.Uint64(), wz.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Zipf = %d, want %d", seed, i, g, w)
			}
		}
	}
	if NewZipf(New(1), 1.0, 1, 10) != nil {
		t.Fatal("NewZipf(s=1) should return nil like rand.NewZipf")
	}
	if NewZipf(New(1), 2.0, 0.5, 10) != nil {
		t.Fatal("NewZipf(v<1) should return nil like rand.NewZipf")
	}
}

// TestSeedInPlace proves Seed fully re-derives the state: an in-place
// reseed of a heavily used generator equals a fresh one.
func TestSeedInPlace(t *testing.T) {
	r := New(1)
	for i := 0; i < 5000; i++ {
		r.Uint64()
	}
	r.Seed(99)
	fresh := New(99)
	for i := 0; i < 1300; i++ {
		if g, w := r.Uint64(), fresh.Uint64(); g != w {
			t.Fatalf("draw %d: reseeded = %#x, fresh = %#x", i, g, w)
		}
	}
}

// TestPanics pins the panic behaviour of the bounded draws.
func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Intn0":    func() { New(1).Intn(0) },
		"Int31n0":  func() { New(1).Int31n(0) },
		"Int63n0":  func() { New(1).Int63n(-1) },
		"Shuffle0": func() { New(1).Shuffle(-1, func(i, j int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
