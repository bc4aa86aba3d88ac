package portfolio

import (
	"errors"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/obs"
)

func testRec() *obs.Rec { return obs.Begin(nil, nil, "portfolio", "test") }

func bv8Query(build func(b *core.Builder, x *core.Node, ty *core.Type) *core.Node) (Query, int32) {
	b := core.NewBuilder()
	ty := core.BV(8, false)
	x := b.Var(ty, "x")
	cond := build(b, x, ty)
	return Query{Cond: cond, Vars: []VarSpec{{ID: x.VarID, Type: ty, Bound: 4, Name: "x"}}}, x.VarID
}

func TestRunSat(t *testing.T) {
	q, id := bv8Query(func(b *core.Builder, x *core.Node, ty *core.Type) *core.Node {
		return b.Eq(x, b.BVConst(ty, 42))
	})
	rec := testRec()
	defer rec.End()
	sess, err := Run(q, Config{SATWorkers: 2}, rec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sess.Found() {
		t.Fatalf("x == 42 must be satisfiable")
	}
	if got := sess.Model(id).U; got != 42 {
		t.Fatalf("model x = %d, want 42", got)
	}
	if w := sess.Winner(); w != "bdd" && w != "sat" {
		t.Fatalf("winner = %q, want bdd or sat", w)
	}
	out := sess.Outcome()
	if out.Races != 1 {
		t.Fatalf("outcome races = %d, want 1", out.Races)
	}
	var wins int64
	for _, n := range out.WinsBy {
		wins += n
	}
	if wins != 1 {
		t.Fatalf("outcome wins = %d, want exactly 1", wins)
	}
	if out.LoserAborts < 0 || out.LoserAbortNs < 0 {
		t.Fatalf("negative loser telemetry: %+v", out)
	}
}

// TestRunLoserAbortsCountsParticipants pins the race telemetry: every
// participant but the winner (the BDD strategy and two SAT workers, less
// one) counts as a loser, whichever strategy wins.
func TestRunLoserAbortsCountsParticipants(t *testing.T) {
	q, _ := bv8Query(func(b *core.Builder, x *core.Node, ty *core.Type) *core.Node {
		return b.Lt(x, b.BVConst(ty, 9))
	})
	rec := testRec()
	defer rec.End()
	sess, err := Run(q, Config{SATWorkers: 2}, rec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sess.Outcome().LoserAborts; got != 2 {
		t.Fatalf("LoserAborts = %d, want 2 (3 participants minus the winner)", got)
	}
}

func TestRunUnsat(t *testing.T) {
	q, _ := bv8Query(func(b *core.Builder, x *core.Node, ty *core.Type) *core.Node {
		return b.And(b.Eq(x, b.BVConst(ty, 1)), b.Eq(x, b.BVConst(ty, 2)))
	})
	rec := testRec()
	defer rec.End()
	sess, err := Run(q, Config{SATWorkers: 2}, rec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sess.Found() {
		t.Fatalf("x == 1 && x == 2 must be unsat")
	}
	if sess.Next(nil, testRec()) {
		t.Fatalf("Next on an unsat session must report false")
	}
}

func TestRunNextEnumerates(t *testing.T) {
	q, id := bv8Query(func(b *core.Builder, x *core.Node, ty *core.Type) *core.Node {
		return b.Lt(x, b.BVConst(ty, 3))
	})
	rec := testRec()
	defer rec.End()
	sess, err := Run(q, Config{SATWorkers: 2}, rec)
	if err != nil || !sess.Found() {
		t.Fatalf("Run = (%v, %v), want sat", sess, err)
	}
	seen := map[uint64]bool{}
	for ok := true; ok; ok = sess.Next(nil, rec) {
		v := sess.Model(id).U
		if v >= 3 {
			t.Fatalf("model x = %d violates x < 3", v)
		}
		if seen[v] {
			t.Fatalf("model x = %d repeated; blocking constraint failed", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("enumerated %d models, want 3", len(seen))
	}
}

func TestRunCancelledReturnsError(t *testing.T) {
	// The query must be hard enough that no strategy finishes before its
	// first poll point: a trivial race may legitimately complete with a
	// sound verdict even under a dead check. A 32-bit symbolic square is
	// far past every backend's polling interval.
	boom := errors.New("boom")
	b := core.NewBuilder()
	ty := core.BV(32, false)
	x := b.Var(ty, "x")
	cond := b.Eq(b.Mul(x, x), b.BVConst(ty, 3037000493))
	q := Query{Cond: cond, Vars: []VarSpec{{ID: x.VarID, Type: ty, Bound: 4, Name: "x"}}}
	rec := testRec()
	defer rec.End()
	sess, err := Run(q, Config{SATWorkers: 2, Check: func() error { return boom }}, rec)
	if !errors.Is(err, boom) {
		t.Fatalf("Run under a dead check: err = %v, want %v", err, boom)
	}
	if sess != nil {
		t.Fatalf("Run must not return a session alongside an error")
	}
}

func TestConfigWorkersDefault(t *testing.T) {
	if n := (Config{}).workers(); n < 1 || n > 4 {
		t.Fatalf("default workers = %d, want 1..4", n)
	}
	if n := (Config{SATWorkers: 7}).workers(); n != 7 {
		t.Fatalf("explicit workers = %d, want 7", n)
	}
}
