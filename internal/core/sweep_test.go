package core

import (
	"runtime"
	"sync"
	"testing"
)

// tableEntries counts the hash-cons table's entries, freed or not.
func tableEntries(b *Builder) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.table)
	for _, ss := range b.spill {
		n += len(ss)
	}
	return n
}

// chain builds x+c0+c1+... over n distinct constants starting at base.
func chain(b *Builder, x *Node, base, n int) *Node {
	e := x
	for i := 0; i < n; i++ {
		e = b.Add(e, b.BVConst(x.Type, uint64(base+i)))
	}
	return e
}

func TestSweepKeepsHeldNodes(t *testing.T) {
	b := NewBuilder()
	x := b.Var(BV(32, false), "x")
	held := chain(b, x, 1, 200)
	for i := 0; i < 2; i++ {
		b.Sweep()
		runtime.GC()
	}
	if again := chain(b, x, 1, 200); again != held {
		t.Fatal("an equal structure got a new pointer while the original was held")
	}
	runtime.KeepAlive(held)
}

func TestSweepFreesDroppedDAG(t *testing.T) {
	b := NewBuilder()
	x := b.Var(BV(32, false), "x")
	kept := chain(b, x, 1, 10)
	base := tableEntries(b)
	chain(b, x, 1000, 500) // dropped at once
	if grown := tableEntries(b); grown < base+500 {
		t.Fatalf("table did not grow: %d -> %d", base, grown)
	}
	b.Sweep() // the dropped nodes become weak...
	runtime.GC()
	b.Sweep() // ...and, once collected, leave the table
	if after := tableEntries(b); after > base {
		t.Fatalf("dropped DAG still in the table: %d entries, %d before it was built", after, base)
	}
	if chain(b, x, 1, 10) != kept {
		t.Fatal("held DAG lost its identity")
	}
}

// TestAutomaticSweepBoundsTable checks that, without explicit sweeps, a
// builder that keeps interning garbage keeps a bounded table.
func TestAutomaticSweepBoundsTable(t *testing.T) {
	b := NewBuilder()
	x := b.Var(BV(32, false), "x")
	for round := 0; round < 10; round++ {
		chain(b, x, round*minSweep, minSweep/2)
		runtime.GC()
	}
	if n := tableEntries(b); n > 3*minSweep {
		t.Fatalf("table holds %d entries after interning %d garbage nodes; want at most %d",
			n, 10*minSweep, 3*minSweep)
	}
	if b.NumNodes() < int64(10*minSweep) {
		t.Fatalf("NumNodes = %d, want every node ever interned counted", b.NumNodes())
	}
}

// TestConcurrentInternAndSweep interns overlapping structures from several
// goroutines while another sweeps and collects; run it under -race.
func TestConcurrentInternAndSweep(t *testing.T) {
	b := NewBuilder()
	x := b.Var(BV(16, false), "x")
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Sweep()
				runtime.GC()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := chain(b, x, 0, 50) // shared by every goroutine
			for i := 0; i < 200; i++ {
				chain(b, x, 1000*(g+1)+i, 20) // private garbage
				if chain(b, x, 0, 50) != held {
					t.Error("shared structure lost its identity during a sweep")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
}
