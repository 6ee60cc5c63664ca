package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestRegistryRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Scheme("Aegis 9x61")
	b := r.Scheme("SAFER32")
	if a == b {
		t.Fatal("distinct names returned the same counters")
	}
	if again := r.Scheme("Aegis 9x61"); again != a {
		t.Fatal("repeated registration returned a different pointer")
	}
	want := map[string]Totals{"Aegis 9x61": {}, "SAFER32": {}}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

// TestConcurrentIncrements hammers one scheme's counters from many
// goroutines; run under -race in CI.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := r.Scheme("shared")
			for i := 0; i < perWorker; i++ {
				sc.Writes.Inc()
				sc.RawWrites.Add(2)
				sc.VerifyReads.Inc()
				sc.Inversions.Inc()
				sc.Repartitions.Inc()
				sc.Salvages.Inc()
				sc.BitWrites.Add(3)
				sc.BlockDeaths.Inc()
				sc.PageDeaths.Inc()
			}
		}()
	}
	wg.Wait()
	got := r.Snapshot()["shared"]
	want := Totals{
		Writes:       workers * perWorker,
		RawWrites:    2 * workers * perWorker,
		VerifyReads:  workers * perWorker,
		Inversions:   workers * perWorker,
		Repartitions: workers * perWorker,
		Salvages:     workers * perWorker,
		BitWrites:    3 * workers * perWorker,
		BlockDeaths:  workers * perWorker,
		PageDeaths:   workers * perWorker,
	}
	if got != want {
		t.Fatalf("totals = %+v, want %+v", got, want)
	}
}

func TestTotalsPlus(t *testing.T) {
	a := Totals{Writes: 1, RawWrites: 2, VerifyReads: 3, Inversions: 4, Repartitions: 5, Salvages: 6, BitWrites: 9, BlockDeaths: 7, PageDeaths: 8}
	b := Totals{Writes: 10, RawWrites: 20, VerifyReads: 30, Inversions: 40, Repartitions: 50, Salvages: 60, BitWrites: 90, BlockDeaths: 70, PageDeaths: 80}
	want := Totals{Writes: 11, RawWrites: 22, VerifyReads: 33, Inversions: 44, Repartitions: 55, Salvages: 66, BitWrites: 99, BlockDeaths: 77, PageDeaths: 88}
	if got := a.Plus(b); got != want {
		t.Fatalf("Plus = %+v, want %+v", got, want)
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	a := r.Histograms("Aegis 9x61")
	if again := r.Histograms("Aegis 9x61"); again != a {
		t.Fatal("repeated histogram registration returned a different pointer")
	}
	if b := r.Histograms("SAFER32"); b == a {
		t.Fatal("distinct names share histograms")
	}
	a.Lifetime.Observe(5)
	snap := r.HistSnapshot()
	if snap["Aegis 9x61"].Lifetime.Count != 1 {
		t.Fatalf("snapshot missing observation: %+v", snap)
	}
	if _, ok := snap["SAFER32"]; !ok {
		t.Fatal("snapshot dropped the empty scheme")
	}
}

// TestRegistryConcurrentHistograms exercises create-on-first-use and
// observation from many goroutines; run under -race in CI.
func TestRegistryConcurrentHistograms(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histograms("shared")
			for i := 0; i < per; i++ {
				h.Lifetime.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.HistSnapshot()["shared"].Lifetime.Count; got != workers*per {
		t.Fatalf("Lifetime.Count = %d, want %d", got, workers*per)
	}
}

func TestBuildInfo(t *testing.T) {
	if GoVersion() == "" || GOOS() == "" || GOARCH() == "" {
		t.Fatal("empty build info")
	}
	if NumCPU() < 1 {
		t.Fatal("NumCPU < 1")
	}
	if GitSHA() == "" {
		t.Fatal("GitSHA returned an empty string")
	}
	if ProcessCPUSeconds() < 0 {
		t.Fatal("negative CPU time")
	}
}
