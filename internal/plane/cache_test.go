package plane

import (
	"sync"
	"testing"

	"aegis/internal/prime"
)

// TestLayoutCacheBudget: layouts of ever more distinct (n, B), built
// from several goroutines at once, fill the cache up to its byte budget
// and no further; past it a layout is still built and correct but not
// shared, and the paper's 9×61 layout stays shared by pointer.
func TestLayoutCacheBudget(t *testing.T) {
	paper := MustLayout(512, 61)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b, uncached := 11, 0; uncached < 2; b = prime.Next(b + 1) {
				l := MustLayout(64, b)
				layoutCache.Lock()
				got := layoutCache.bytes
				layoutCache.Unlock()
				if got > layoutCacheBudget {
					t.Errorf("cached layouts take %d bytes, over the %d-byte budget", got, layoutCacheBudget)
					return
				}
				if MustLayout(64, b) == l {
					continue
				}
				uncached++
				if l.B != b || l.GroupMask(0, 1).PopCount() != len(l.GroupMembers(0, 1)) {
					t.Errorf("uncached layout 64/%d malformed: %s", b, l)
					return
				}
			}
		}()
	}
	wg.Wait()
	if MustLayout(512, 61) != paper {
		t.Fatal("the paper layout is no longer shared")
	}
}
