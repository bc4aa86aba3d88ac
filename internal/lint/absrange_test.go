package lint

import (
	"testing"

	"zen-go/internal/core"
)

func TestAbsRangeImpossibleComparison(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	// x|0x80 is at least 0x80 by known bits, so it can never be below 0x10.
	root := b.Lt(b.BOr(x, b.BVConst(u8, 0x80)), b.BVConst(u8, 0x10))
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL601") {
		t.Fatalf("want ZL601 on disjoint-range comparison, got %v", codes(diags))
	}
}

func TestAbsRangeAlwaysTrueAndForcedBits(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	// The /0-mask idiom: BAnd(x, 0) forces every bit, and comparing it to
	// zero always holds. The builder does not fold this, the analyzer must.
	masked := b.BAnd(x, b.BVConst(u8, 0))
	root := b.Eq(masked, b.BVConst(u8, 0))
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL602") {
		t.Fatalf("want ZL602 on always-true comparison, got %v", codes(diags))
	}
	if !hasCode(diags, "ZL603") {
		t.Fatalf("want ZL603 on fully-forced expression, got %v", codes(diags))
	}
}

func TestAbsRangeGuardRefinement(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	y, z, w := b.Var(u8, "y"), b.Var(u8, "z"), b.Var(u8, "w")
	// Under x < 5 the nested x < 10 is decided by interval refinement.
	// Its dead else-branch is reported once, as the comparison, not again
	// as ZL201.
	inner := b.If(b.Lt(x, b.BVConst(u8, 10)), y, z)
	root := b.If(b.Lt(x, b.BVConst(u8, 5)), inner, w)
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL602") {
		t.Fatalf("want ZL602 via guard refinement, got %v", codes(diags))
	}
	if dead := Run(root, nil, AbsRange); hasCode(dead, "ZL201") {
		t.Fatalf("ZL201 unexpectedly sees the range fact — the analyzers are meant to be disjoint: %v", codes(dead))
	}
}

func TestAbsRangeContextDisagreementIsClean(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	y, z := b.Var(u8, "y"), b.Var(u8, "z")
	// The shared inner if is decided under the then-context (x < 5 implies
	// x < 10) but open under the else-context, so no finding: hash-consed
	// nodes are only reported when every reachable context agrees.
	inner := b.If(b.Lt(x, b.BVConst(u8, 10)), y, z)
	root := b.If(b.Lt(x, b.BVConst(u8, 5)), inner, inner)
	if diags := Run(root, nil, AbsRange); len(diags) != 0 {
		t.Fatalf("context-dependent comparison reported %v", codes(diags))
	}
}

func TestAbsRangeDeadContextNotObserved(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	y, z := b.Var(u8, "y"), b.Var(u8, "z")
	// 9 < x contradicts x < 5, so its then-branch is unreachable; the
	// always-false comparison living only there must not be reported —
	// dead contexts are skipped entirely.
	buried := b.Lt(b.BOr(x, b.BVConst(u8, 0x80)), b.BVConst(u8, 0x10))
	inner := b.If(b.Lt(b.BVConst(u8, 9), x), b.If(buried, y, z), y)
	root := b.If(b.Lt(x, b.BVConst(u8, 5)), inner, y)
	diags := Run(root, nil, AbsRange)
	for _, d := range diags {
		if d.Node == buried {
			t.Fatalf("comparison in dead context reported: %v", codes(diags))
		}
	}
}

func TestAbsRangeCleanModel(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x, y := b.Var(u8, "x"), b.Var(u8, "y")
	root := b.If(b.Lt(x, y), b.Add(x, y), b.Sub(x, y))
	if diags := Run(b.Eq(root, b.BVConst(u8, 3)), nil, AbsRange); len(diags) != 0 {
		t.Fatalf("clean model reported %v", codes(diags))
	}
}

func TestAbsRangeMalformedDAGNoPanic(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	bad := b.Add(x, b.BVConst(u8, 1))
	// Hand-grafted type mismatch, as in the ZL101 well-formedness corpus.
	// lint.Run does not gate analyzers on well-formedness, so the range
	// walker must survive whatever WellFormed would have flagged.
	bad.Kids[1] = b.Var(core.Bool(), "p")
	root := b.Eq(bad, b.BVConst(u8, 3))
	_ = Run(root, nil, AbsRange)
}

func TestAbsRangeRepeatedDisjunction(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	p, q := b.Var(core.Bool(), "p"), b.Var(core.Bool(), "q")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	// Assuming p∨q false refutes p and q without meeting the fact that
	// p∨q holds, so the walker must consult the context first.
	inner := b.If(b.Or(p, q), x, y)
	root := b.If(b.Or(p, q), inner, z)
	for _, d := range Run(root, nil, AbsRange) {
		if d.Code == "ZL201" && d.Node == inner {
			return
		}
	}
	t.Fatal("want ZL201 on the repeated disjunction")
}

func TestAbsRangeUnneededOperandWalked(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c := b.Var(core.Bool(), "c")
	x, y, w := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "w")
	// In the else of c, And(c, ·) never needs its right operand; the If
	// inside it is still walked, under ¬c, and its else-branch is dead.
	inner := b.If(b.Not(c), x, y)
	root := b.If(c, b.Eq(x, w), b.And(c, b.Eq(inner, w)))
	for _, d := range Run(root, nil, AbsRange) {
		if d.Code == "ZL201" && d.Node == inner {
			return
		}
	}
	t.Fatal("want ZL201 inside the unneeded And operand")
}

func TestAbsRangeForcedByDeadBranchReportedOnce(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c := b.Var(core.Bool(), "c")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	// Under c the inner If always yields 5, so it, the masked value and
	// the comparison reading them are decided — but only because the
	// inner If's else-branch is dead. That is reported as ZL201, not
	// again as ZL602/ZL603.
	inner := b.If(c, b.BVConst(u8, 5), y)
	masked := b.BAnd(inner, b.BVConst(u8, 0x0f))
	root := b.If(c, b.If(b.Eq(masked, b.BVConst(u8, 5)), x, z), z)
	diags := Run(root, nil, AbsRange)
	for _, d := range diags {
		if d.Code != "ZL201" {
			t.Fatalf("range finding on a value a dead branch pins: %v", codes(diags))
		}
	}
	if !hasCode(diags, "ZL201") {
		t.Fatalf("want ZL201, got %v", codes(diags))
	}
}

func TestAbsRangeRepeatBehindAlwaysTrueConjunct(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x, y := b.Var(u8, "x"), b.Var(u8, "y")
	// An ACL line that repeats an earlier one: both match
	// And(BAnd(y, 0) == 0, x == 7). The conjunct always holds (ZL602),
	// but it cannot make the And false: the repeated line is dead because
	// the earlier one took its packets, so it is reported as ZL201.
	match := b.And(b.Eq(b.BAnd(y, b.BVConst(u8, 0)), b.BVConst(u8, 0)), b.Eq(x, b.BVConst(u8, 7)))
	inner := b.If(match, b.BVConst(u8, 2), b.BVConst(u8, 3))
	root := b.If(match, b.BVConst(u8, 1), inner)
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL602") {
		t.Fatalf("want ZL602 on the always-true conjunct, got %v", codes(diags))
	}
	for _, d := range diags {
		if d.Code == "ZL201" && d.Node == inner {
			return
		}
	}
	t.Fatalf("want ZL201 on the repeated line, got %v", codes(diags))
}
