package zen_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"zen-go/internal/figgen"
	"zen-go/nets/pkt"
	"zen-go/zen"
)

// liveHeap returns the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// trim drops the builder's hold on nodes nothing else references.
func trim() {
	zen.Builder().Sweep()
	runtime.GC()
	zen.Builder().Sweep()
}

// retentionPred is query i of TestPresolvedFindsReleaseNodes: y+i == i,
// or-ed with a 1,000-node decoy that known bits prove dead ((x|1) == 0),
// so presolve hands the solver a one-comparison DAG.
func retentionPred(i int) func(x, y zen.Value[uint16]) zen.Value[bool] {
	return func(x, y zen.Value[uint16]) zen.Value[bool] {
		decoy := x
		for j := 0; j < 500; j++ {
			decoy = zen.Add(decoy, zen.Lift(uint16(i*500+j)))
		}
		dead := zen.And(zen.EqC(zen.BitOr(x, zen.Lift(uint16(1))), 0), zen.EqC(decoy, 7))
		return zen.Or(dead, zen.EqC(zen.Add(y, zen.Lift(uint16(i))), uint16(i)))
	}
}

// TestPresolvedFindsReleaseNodes checks that a process serving distinct
// queries does not keep their DAGs: after 500 presolved Finds over fresh
// predicates and a collection, the live heap has grown by less than 200
// of those predicates take while held. (The builder holds the
// nodes interned since its last sweep, so some recent queries stay until
// the next one.)
func TestPresolvedFindsReleaseNodes(t *testing.T) {
	fn := zen.Func(func(x zen.Value[uint16]) zen.Value[uint16] { return x })

	// What 200 predicates occupy while referenced, from 100.
	trim()
	base := liveHeap()
	var held []zen.Value[bool]
	for i := 0; i < 100; i++ {
		x, y := zen.Symbolic[uint16]("x"), zen.Symbolic[uint16]("y")
		held = append(held, retentionPred(1000+i)(x, y))
	}
	bound := (liveHeap() - base) * 2
	runtime.KeepAlive(held)
	held = nil

	trim()
	before := liveHeap()
	for i := 0; i < 500; i++ {
		if _, ok := fn.Find(retentionPred(i), zen.WithPresolve()); !ok {
			t.Fatalf("query %d: no witness", i)
		}
	}
	grown := liveHeap() - before
	t.Logf("heap grew %d KiB over 500 queries; 200 held predicates take %d KiB", grown>>10, bound>>10)
	if grown > bound {
		t.Fatalf("500 distinct queries retained %d KiB, more than 200 held predicates' %d KiB", grown>>10, bound>>10)
	}
}

// TestEvaluatedModelsReleasePlans checks that the bitslice plan cache
// keeps no model it has seen: 100 distinct 100-rule ACLs, each compiled
// and batch-evaluated once and then dropped, leave less on the heap than
// 25 of them take while held.
func TestEvaluatedModelsReleasePlans(t *testing.T) {
	model := func(seed int) *zen.Fn[pkt.Header, uint16] {
		return zen.Func(figgen.ACL(rand.New(rand.NewSource(int64(seed))), 100).MatchLine)
	}
	use := func(fn *zen.Fn[pkt.Header, uint16]) {
		h := pkt.Header{DstIP: 1, Protocol: 6}
		if got, want := fn.Compile()(h), fn.Evaluate(h); got != want {
			t.Fatalf("compiled = %d, Evaluate = %d", got, want)
		}
		if got := fn.EvaluateBatch([]pkt.Header{h}); got[0] != fn.Evaluate(h) {
			t.Fatalf("EvaluateBatch = %d, Evaluate = %d", got[0], fn.Evaluate(h))
		}
	}

	trim()
	base := liveHeap()
	var held []*zen.Fn[pkt.Header, uint16]
	for i := 0; i < 25; i++ {
		held = append(held, model(1000+i))
		use(held[i])
	}
	bound := liveHeap() - base
	runtime.KeepAlive(held)
	held = nil

	trim()
	before := liveHeap()
	for i := 0; i < 100; i++ {
		use(model(i))
	}
	// A collected model's cache entry is deleted by a cleanup that runs
	// after the collection, and its plan is freed by the next one.
	var grown int64
	for try := 0; try < 20; try++ {
		trim()
		if grown = liveHeap() - before; grown <= bound {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("heap grew %d KiB over 100 dropped models; 25 held models take %d KiB", grown>>10, bound>>10)
	if grown > bound {
		t.Fatalf("100 dropped models retained %d KiB, more than 25 held models' %d KiB", grown>>10, bound>>10)
	}
}
