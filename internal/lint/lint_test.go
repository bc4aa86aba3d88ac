package lint

import (
	"strings"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/cost"
)

func codes(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(diags []Diagnostic, code string) bool {
	for _, d := range diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// Each analyzer must fire on a known-bad DAG seeded here, so a regression
// that silences one fails loudly.

func TestWellFormedTypeMismatch(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	bad := b.Add(x, b.BVConst(u8, 1))
	// Simulate a hand-assembled DAG (zen.Wrap-style misuse) by grafting a
	// boolean operand under the add.
	bad.Kids[1] = b.Var(core.Bool(), "p")
	diags := Run(bad, nil, WellFormed)
	if !hasCode(diags, "ZL101") {
		t.Fatalf("want ZL101 on type-mismatched add, got %v", codes(diags))
	}
}

func TestWellFormedUnmaskedConst(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c := b.BVConst(u8, 1)
	c.UVal = 0x1ff // corrupt: wider than the type
	diags := Run(b.Add(b.Var(u8, "x"), c), nil, WellFormed)
	if !hasCode(diags, "ZL103") {
		t.Fatalf("want ZL103 on unmasked constant, got %v", codes(diags))
	}
}

func TestWellFormedBinderEscape(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	l := b.Var(core.List(u8), "l")
	var escaped *core.Node
	cs := b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
		escaped = h
		return h
	})
	// The head binder leaks out of its case into the surrounding expression.
	root := b.Add(cs, escaped)
	diags := Run(root, nil, WellFormed)
	if !hasCode(diags, "ZL102") {
		t.Fatalf("want ZL102 on escaped binder, got %v", codes(diags))
	}
}

func TestWellFormedCleanModel(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	l := b.Var(core.List(u8), "l")
	sum := b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
		return b.Add(h, b.BVConst(u8, 1))
	})
	if diags := Run(sum, nil, WellFormed); len(diags) != 0 {
		t.Fatalf("clean DAG reported %v", codes(diags))
	}
}

func TestDeadBranchRepeatedCondition(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c := b.Var(core.Bool(), "c")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	inner := b.If(c, x, y) // reachable only when c already holds: y dead
	root := b.If(c, inner, z)
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL201") {
		t.Fatalf("want ZL201 on repeated condition, got %v", codes(diags))
	}
}

func TestDeadBranchKleenePropagation(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c, d := b.Var(core.Bool(), "c"), b.Var(core.Bool(), "d")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	// Under c, the disjunction c∨d is decided true by Kleene propagation
	// even though c∨d is not itself assumed.
	inner := b.If(b.Or(c, d), x, y)
	root := b.If(c, inner, z)
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL201") {
		t.Fatalf("want ZL201 via ternary propagation, got %v", codes(diags))
	}
}

func TestDeadBranchContradiction(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c := b.Var(core.Bool(), "c")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	// In the else of c, an if on c can only take its own else branch.
	inner := b.If(c, x, y)
	root := b.If(c, z, inner)
	diags := Run(root, nil, AbsRange)
	if !hasCode(diags, "ZL201") {
		t.Fatalf("want ZL201 on contradicted condition, got %v", codes(diags))
	}
}

func TestDeadBranchCleanModel(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	c, d := b.Var(core.Bool(), "c"), b.Var(core.Bool(), "d")
	x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
	root := b.If(c, b.If(d, x, y), z)
	if diags := Run(root, nil, AbsRange); len(diags) != 0 {
		t.Fatalf("independent conditions reported %v", codes(diags))
	}
}

func TestDupSubtreeAlphaEquivalentCases(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	l := b.Var(core.List(u8), "l")
	mk := func() *core.Node {
		return b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
			return b.Add(h, b.BVConst(u8, 1))
		})
	}
	// The same elimination built twice: distinct nodes, same structure.
	root := b.Add(mk(), mk())
	diags := Run(root, nil, DupSubtree)
	if !hasCode(diags, "ZL301") {
		t.Fatalf("want ZL301 on duplicated list case, got %v", codes(diags))
	}
}

func TestDupSubtreeSharedIsClean(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	l := b.Var(core.List(u8), "l")
	one := b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
		return b.Add(h, b.BVConst(u8, 1))
	})
	root := b.Add(one, one) // properly shared
	if diags := Run(root, nil, DupSubtree); len(diags) != 0 {
		t.Fatalf("shared case reported %v", codes(diags))
	}
}

func TestUnusedInputField(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	obj := core.Object("Hdr",
		core.Field{Name: "Src", Type: u8},
		core.Field{Name: "Dst", Type: u8})
	arg := b.Var(obj, "in")
	root := b.Eq(b.GetField(arg, 0), b.BVConst(u8, 7)) // Dst never read
	diags := Run(root, arg, UnusedInput)
	if !hasCode(diags, "ZL401") {
		t.Fatalf("want ZL401 on unread field, got %v", codes(diags))
	}
	if !strings.Contains(diags[0].Msg, "in.Dst") {
		t.Fatalf("finding should name the field path: %q", diags[0].Msg)
	}
}

func TestUnusedInputWholeArg(t *testing.T) {
	b := core.NewBuilder()
	arg := b.Var(core.BV(8, false), "in")
	root := b.BoolConst(true)
	diags := Run(root, arg, UnusedInput)
	if !hasCode(diags, "ZL402") {
		t.Fatalf("want ZL402 on ignored input, got %v", codes(diags))
	}
}

func TestUnusedInputOpaqueUseCoversFields(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	obj := core.Object("Hdr",
		core.Field{Name: "Src", Type: u8},
		core.Field{Name: "Dst", Type: u8})
	arg := b.Var(obj, "in")
	other := b.Var(obj, "other")
	root := b.Eq(arg, other) // whole-object equality reads every field
	if diags := Run(root, arg, UnusedInput); len(diags) != 0 {
		t.Fatalf("opaque use reported %v", codes(diags))
	}
}

func TestCostAdvisorWideMul(t *testing.T) {
	b := core.NewBuilder()
	u32 := core.BV(32, false)
	root := b.Eq(b.Mul(b.Var(u32, "x"), b.Var(u32, "y")), b.BVConst(u32, 6))
	diags := Run(root, nil, CostAdvisor)
	if !hasCode(diags, "ZL501") {
		t.Fatalf("want ZL501 on wide mul, got %v", codes(diags))
	}
	d := diags[0]
	if d.PerBackend["bdd"] != SevError || d.PerBackend["sat"] != SevWarn {
		t.Fatalf("per-backend severities wrong: %v", d.PerBackend)
	}
}

func TestCostAdvisorNarrowMulClean(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	root := b.Eq(b.Mul(b.Var(u8, "x"), b.Var(u8, "y")), b.BVConst(u8, 6))
	if diags := Run(root, nil, CostAdvisor); len(diags) != 0 {
		t.Fatalf("narrow mul reported %v", codes(diags))
	}
}

func TestCostAdvisorMidShift(t *testing.T) {
	b := core.NewBuilder()
	u64 := core.BV(64, false)
	x, y := b.Var(u64, "x"), b.Var(u64, "y")
	root := b.Eq(b.Add(b.Shl(x, 17), y), b.BVConst(u64, 0))
	diags := Run(root, nil, CostAdvisor)
	if !hasCode(diags, "ZL502") {
		t.Fatalf("want ZL502 on mid-range shift under arithmetic, got %v", codes(diags))
	}
	// Edge shifts stay clean even under arithmetic.
	edge := b.Eq(b.Add(b.Shl(x, 1), y), b.BVConst(u64, 0))
	if diags := Run(edge, nil, CostAdvisor); len(diags) != 0 {
		t.Fatalf("edge shift reported %v", codes(diags))
	}
	// Mid-range shifts without arithmetic anywhere near them stay clean.
	masky := b.Eq(b.BAnd(b.Shl(x, 17), y), b.BVConst(u64, 0))
	if diags := Run(masky, nil, CostAdvisor); len(diags) != 0 {
		t.Fatalf("arithmetic-free shift reported %v", codes(diags))
	}
}

func TestCostAdvisorDeepLists(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	lt := core.List(u8)
	l := b.Var(lt, "l")
	var descend func(l *core.Node, depth int) *core.Node
	descend = func(l *core.Node, depth int) *core.Node {
		if depth == 0 {
			return b.BVConst(u8, 0)
		}
		return b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
			return b.Add(h, descend(tail, depth-1))
		})
	}
	root := descend(l, cost.DeepCaseDepth+2)
	diags := Run(root, nil, CostAdvisor)
	if !hasCode(diags, "ZL503") {
		t.Fatalf("want ZL503 on deep case nesting, got %v", codes(diags))
	}
	if shallow := Run(descend(b.Var(lt, "m"), 3), nil, CostAdvisor); len(shallow) != 0 {
		t.Fatalf("shallow nesting reported %v", codes(shallow))
	}
}

func TestFilterSuppression(t *testing.T) {
	b := core.NewBuilder()
	u32 := core.BV(32, false)
	root := b.Eq(b.Mul(b.Var(u32, "x"), b.Var(u32, "y")), b.BVConst(u32, 6))
	diags := Run(root, nil, CostAdvisor)
	kept, suppressed := Filter(diags, []string{"ZL501"})
	if len(kept) != 0 || len(suppressed) != len(diags) {
		t.Fatalf("suppression failed: kept %v suppressed %v", codes(kept), codes(suppressed))
	}
	kept, suppressed = Filter(diags, []string{"ZL999"})
	if len(kept) != len(diags) || len(suppressed) != 0 {
		t.Fatalf("unrelated allow suppressed findings: kept %v", codes(kept))
	}
}

func TestStaleAllow(t *testing.T) {
	b := core.NewBuilder()
	u32 := core.BV(32, false)
	root := b.Eq(b.Mul(b.Var(u32, "x"), b.Var(u32, "y")), b.BVConst(u32, 6))
	diags := Run(root, nil, CostAdvisor)
	allow := []string{"ZL501", "ZL999", "ZL999"}
	_, suppressed := Filter(diags, allow)
	// ZL501 earns its keep; ZL999 suppresses nothing and is reported
	// once despite the duplicate entry.
	stale := Stale(allow, suppressed)
	if len(stale) != 1 || stale[0] != "ZL999" {
		t.Fatalf("want stale [ZL999], got %v", stale)
	}
	if Stale(nil, suppressed) != nil {
		t.Fatalf("empty allow-list reported stale entries")
	}
}

func TestSeverityOrdering(t *testing.T) {
	b := core.NewBuilder()
	u32 := core.BV(32, false)
	obj := core.Object("T",
		core.Field{Name: "A", Type: u32},
		core.Field{Name: "B", Type: u32})
	arg := b.Var(obj, "in")
	// One error-grade cost finding plus one info-grade unused field.
	root := b.Eq(b.Mul(b.GetField(arg, 0), b.GetField(arg, 0)), b.BVConst(u32, 4))
	diags := Run(root, arg)
	if len(diags) < 2 {
		t.Fatalf("want at least 2 findings, got %v", codes(diags))
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Severity > diags[i-1].Severity {
			t.Fatalf("findings not sorted by severity: %v", codes(diags))
		}
	}
}
