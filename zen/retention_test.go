package zen_test

import (
	"runtime"
	"testing"

	"zen-go/zen"
)

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
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	trim := func() { // keep only what is still referenced
		zen.Builder().Sweep()
		runtime.GC()
		zen.Builder().Sweep()
	}

	// What 200 predicates occupy while referenced, from 100.
	trim()
	base := heap()
	var held []zen.Value[bool]
	for i := 0; i < 100; i++ {
		x, y := zen.Symbolic[uint16]("x"), zen.Symbolic[uint16]("y")
		held = append(held, retentionPred(1000+i)(x, y))
	}
	bound := (heap() - base) * 2
	runtime.KeepAlive(held)
	held = nil

	trim()
	before := heap()
	for i := 0; i < 500; i++ {
		if _, ok := fn.Find(retentionPred(i), zen.WithPresolve()); !ok {
			t.Fatalf("query %d: no witness", i)
		}
	}
	grown := heap() - before
	t.Logf("heap grew %d KiB over 500 queries; 200 held predicates take %d KiB", grown>>10, bound>>10)
	if grown > bound {
		t.Fatalf("500 distinct queries retained %d KiB, more than 200 held predicates' %d KiB", grown>>10, bound>>10)
	}
}
