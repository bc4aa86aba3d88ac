package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"zen-go/internal/core"
)

func mapLen(m *sync.Map) int {
	n := 0
	m.Range(func(any, any) bool { n++; return true })
	return n
}

// TestFingerprintCacheReleasesDroppedPredicates: the fingerprint memo
// must not keep a predicate alive. After the predicates are dropped and
// the collector runs, their entries are gone.
func TestFingerprintCacheReleasesDroppedPredicates(t *testing.T) {
	const n = 100
	before := mapLen(&fpCache)
	func() {
		b := core.NewBuilder()
		x := b.Var(core.BV(16, false), "x")
		for i := 0; i < n; i++ {
			fingerprint(b.Eq(x, b.BVConst(core.BV(16, false), uint64(i))))
		}
	}()
	if got := mapLen(&fpCache); got < before+n {
		t.Fatalf("test premise broken: %d entries after fingerprinting %d predicates, had %d", got, n, before)
	}
	// Cleanups run on their own goroutine after the collection that
	// finds the root dead; give them a few cycles.
	for i := 0; i < 50 && mapLen(&fpCache) >= before+n; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := mapLen(&fpCache); got >= before+n {
		t.Fatalf("fingerprint cache holds %d entries after the predicates were dropped, want < %d", got, before+n)
	}
}
