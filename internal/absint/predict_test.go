package absint

import (
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/cost"
)

func TestPredictHazards(t *testing.T) {
	b := core.NewBuilder()
	u32 := core.BV(32, false)
	u8 := core.BV(8, false)
	x32 := b.Var(u32, "x")
	y32 := b.Var(u32, "y")
	x8 := b.Var(u8, "x8")

	// Wide multiplication must route to SAT (ZL501's BDD SevError).
	wideMul := b.Eq(b.Mul(x32, y32), b.BVConst(u32, 77))
	if c, _ := Predict(wideMul, 3); c != ChooseSAT {
		t.Fatalf("wide mul: got %s, want sat", c)
	}

	// Mid-range shift feeding arithmetic is also BDD-hostile.
	midShift := b.Eq(b.Add(b.Shl(x32, 13), y32), b.BVConst(u32, 5))
	if c, _ := Predict(midShift, 3); c != ChooseSAT {
		t.Fatalf("mid shift + arith: got %s, want sat", c)
	}

	// A small comparison cone is the cached-BDD sweet spot.
	small := b.Eq(b.Add(x8, b.BVConst(u8, 3)), b.BVConst(u8, 9))
	if c, _ := Predict(small, 3); c != ChooseBDD {
		t.Fatalf("small cone: got %s, want bdd", c)
	}

	// Deep list-case nesting is uncertain for every single engine.
	lt := core.List(u8)
	xs := b.Var(lt, "xs")
	deep := func() *core.Node {
		sum := func(list *core.Node, depth int) *core.Node { return nil }
		sum = func(list *core.Node, depth int) *core.Node {
			if depth == 0 {
				return b.BVConst(u8, 0)
			}
			return b.ListCase(list, b.BVConst(u8, 0), func(h, tl *core.Node) *core.Node {
				return b.Add(h, sum(tl, depth-1))
			})
		}
		return b.Eq(sum(xs, cost.DeepCaseDepth+2), b.BVConst(u8, 41))
	}()
	if c, _ := Predict(deep, cost.DeepCaseDepth+2); c != ChoosePortfolio {
		t.Fatalf("deep cases: got %s, want portfolio", c)
	}
}

func TestPredictLargeDAG(t *testing.T) {
	// A long if-chain over many inputs, the acl-find shape where the
	// recorded portfolio races were all won by SAT.
	b := core.NewBuilder()
	u16 := core.BV(16, false)
	out := b.BVConst(u16, 0)
	vars := 0
	for i := 0; i < 700; i++ {
		v := b.Var(u16, "f")
		vars++
		out = b.If(b.Lt(v, b.BVConst(u16, uint64(i)+1)), b.BVConst(u16, uint64(i)), out)
	}
	root := b.Eq(out, b.BVConst(u16, 123))
	f := ExtractFeatures(New(), root, 3)
	// The builder's Eq-through-If push already drops some branches, so
	// fewer than the declared inputs stay live — but most must.
	if f.LiveVars == 0 || f.LiveVars > vars {
		t.Fatalf("live vars: got %d out of %d declared", f.LiveVars, vars)
	}
	if f.LiveBits != 16*f.LiveVars {
		t.Fatalf("live bits: got %d, want %d", f.LiveBits, 16*f.LiveVars)
	}
	if c, reason := f.Choose(); c != ChooseSAT {
		t.Fatalf("large DAG: got %s (%s), want sat", c, reason)
	}
}
