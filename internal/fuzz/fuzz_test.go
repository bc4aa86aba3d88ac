package fuzz

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zen-go/internal/backends"
	"zen-go/internal/bitslice"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGenDeterministic: the generator is a pure function of its seed.
func TestGenDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g1 := NewGen(seed, DefaultConfig())
		e1, i1 := g1.Predicate()
		g2 := NewGen(seed, DefaultConfig())
		e2, i2 := g2.Predicate()
		if e1.String() != e2.String() || !i1.Type.Same(i2.Type) {
			t.Fatalf("seed %d: non-deterministic generation:\n%s\n%s", seed, e1, e2)
		}
	}
}

// TestGenWellTyped: every generated query is boolean over a single input.
func TestGenWellTyped(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := NewGen(seed, DefaultConfig())
		expr, in := g.Predicate()
		if expr.Type.Kind != core.KindBool {
			t.Fatalf("seed %d: non-boolean query %s", seed, expr.Type)
		}
		if in.Op != core.OpVar {
			t.Fatalf("seed %d: input is not a variable", seed)
		}
	}
}

// TestGenPredicatesReadOwnInput: predicates drawn one after another from
// one Gen each read only their own input. Both the plan compiler, which
// translates every branch, and the interpreter panic on a variable the
// environment does not bind.
func TestGenPredicatesReadOwnInput(t *testing.T) {
	g := NewGen(1, DefaultConfig())
	rng := deterministicRNG(1)
	for i := 0; i < 300; i++ {
		expr, in := g.Predicate()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("predicate %d reads a foreign variable: %v\n%s", i, r, expr)
				}
			}()
			if _, err := bitslice.Compile(expr, in); err != nil && !bitslice.IsUnsupported(err) {
				t.Fatalf("predicate %d: compile: %v", i, err)
			}
			interp.Eval(expr, interp.Env{in.VarID: RandValue(rng, in.Type, 2)})
		}()
	}
}

// TestRandValueInterpretable: RandValue produces values the interpreter
// accepts for the variable's type.
func TestRandValueInterpretable(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := NewGen(seed, DefaultConfig())
		expr, in := g.Predicate()
		rng := deterministicRNG(seed)
		for i := 0; i < 3; i++ {
			x := RandValue(rng, in.Type, 2)
			if !x.Type.Same(in.Type) {
				t.Fatalf("seed %d: RandValue type %s, want %s", seed, x.Type, in.Type)
			}
			v := interp.Eval(expr, interp.Env{in.VarID: x})
			if v.Type.Kind != core.KindBool {
				t.Fatalf("seed %d: evaluation returned %s", seed, v.Type)
			}
		}
	}
}

// TestOracleAcceptsTautologies: the oracle agrees with itself on trivially
// true and trivially false queries over assorted input types.
func TestOracleAcceptsTautologies(t *testing.T) {
	b := core.NewBuilder()
	types := []*core.Type{
		core.Bool(),
		core.BV(8, false),
		core.BV(16, true),
		core.Object("Pair", core.Field{Name: "A", Type: core.BV(4, false)}, core.Field{Name: "B", Type: core.Bool()}),
		core.List(core.BV(3, false)),
	}
	for _, typ := range types {
		in := b.Var(typ, "in")
		for _, expr := range []*core.Node{b.BoolConst(true), b.BoolConst(false), b.Eq(in, in)} {
			if d := Check(expr, in, DefaultCheckConfig(), deterministicRNG(1)); d != nil {
				t.Fatalf("type %s expr %s: unexpected divergence %v", typ, expr, d)
			}
		}
	}
}

// TestOracleCatchesInjectedUnsoundness: a deliberately broken "backend"
// (a solver whose models are corrupted) must be flagged. This exercises the
// model-soundness path without requiring a real backend bug.
func TestOracleCatchesInjectedUnsoundness(t *testing.T) {
	b := core.NewBuilder()
	in := b.Var(core.BV(8, false), "in")
	expr := b.Eq(in, b.BVConst(core.BV(8, false), 7))
	// Corrupt every decoded model before the soundness check would see it.
	res := enumerateCorrupted(expr, in, DefaultCheckConfig())
	if res.div == nil || res.div.Kind != KindUnsoundModel {
		t.Fatalf("corrupted enumeration not flagged: %+v", res.div)
	}
}

// TestSmokeCampaign is the deterministic CI smoke: a fixed-seed campaign of
// 2000 generated queries through the full oracle with zero divergences, and
// telemetry counters that add up.
func TestSmokeCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke campaign skipped in -short mode")
	}
	st := &obs.Stats{}
	c := &Campaign{Seed: 1, N: 2000, Gen: DefaultConfig(), Check: DefaultCheckConfig(), Shrink: true, Stats: st}
	findings := c.Run()
	for _, f := range findings {
		t.Errorf("iteration %d (seed %d): %v\n%s", f.Iter, f.Seed, f.Div, f.Repro)
	}
	snap := st.Snapshot()
	if snap.Fuzz.Execs != 2000 {
		t.Fatalf("execs counter = %d, want 2000", snap.Fuzz.Execs)
	}
	if snap.Fuzz.Divergences != int64(len(findings)) {
		t.Fatalf("divergences counter = %d, want %d", snap.Fuzz.Divergences, len(findings))
	}
	if _, ok := snap.Phase("campaign"); !ok {
		t.Fatalf("campaign phase timing missing from %v", snap.Phases)
	}
	if snap.AnalysesBy["fuzz"] != 1 {
		t.Fatalf("fuzz analysis not recorded: %v", snap.AnalysesBy)
	}
}

// TestShrinkInjectedDivergence: the shrinker reduces a large query failing
// under an injected oracle (any query containing a signed comparison
// "fails") to a minimal one, and the printed repro matches the golden file
// that is also checked in — compiled — as shrink_regress_test.go.
func TestShrinkInjectedDivergence(t *testing.T) {
	var g *Gen
	var expr, in *core.Node
	for i := 0; ; i++ {
		g = NewGen(IterSeed(42, i), DefaultConfig())
		e, v := g.Predicate()
		if containsOp(e, core.OpLt) && core.Measure(e).Nodes >= 25 {
			expr, in = e, v
			break
		}
	}
	before := core.Measure(expr).Nodes
	failing := func(n *core.Node) bool { return containsOp(n, core.OpLt) }
	shrunk := Shrink(g.B, expr, failing, 10000)
	after := core.Measure(shrunk).Nodes
	t.Logf("shrunk %d -> %d nodes: %s", before, after, shrunk)
	if !failing(shrunk) {
		t.Fatalf("shrunk expression no longer fails")
	}
	if after > 10 {
		t.Fatalf("shrunk to %d nodes, want <= 10: %s", after, shrunk)
	}

	src := ReproSource("ShrunkInjected", shrunk, in, 2)
	golden := filepath.Join("testdata", "shrink_repro.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if src != string(want) {
		t.Fatalf("repro drifted from golden:\n--- got ---\n%s--- want ---\n%s", src, want)
	}
}

// TestReproSourceShape: printed repros are self-contained test functions.
func TestReproSourceShape(t *testing.T) {
	b := core.NewBuilder()
	in := b.Var(core.BV(8, false), "in")
	expr := b.Lt(in, b.BVConst(core.BV(8, false), 10))
	src := ReproSource("Sample", expr, in, 3)
	for _, frag := range []string{
		"func TestSample(t *testing.T) {",
		"b := core.NewBuilder()",
		`in := b.Var(core.BV(8, false), "in")`,
		"fuzz.RequireAgreement(t, expr, in, 3)",
	} {
		if !strings.Contains(src, frag) {
			t.Fatalf("repro missing %q:\n%s", frag, src)
		}
	}
}

// TestIterSeedSpread: per-iteration seeds do not collide over a campaign.
func TestIterSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := IterSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at iteration %d", i)
		}
		seen[s] = true
	}
}

// corrupting wraps a solver and flips every decoded model, simulating a
// backend whose decoder is broken.
type corrupting struct{ anySolver }

func (c corrupting) decode() *interp.Value {
	m := c.anySolver.decode()
	return interp.BV(m.Type, m.U+1)
}

func enumerateCorrupted(expr, in *core.Node, cfg CheckConfig) enumResult {
	return enumerate(func() anySolver { return corrupting{wrapSolver(backends.NewBDD())} }, expr, expr, in, cfg)
}

func containsOp(n *core.Node, op core.Op) bool {
	seen := make(map[*core.Node]bool)
	var walk func(*core.Node) bool
	walk = func(n *core.Node) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		if n.Op == op {
			return true
		}
		for _, k := range n.Kids {
			if walk(k) {
				return true
			}
		}
		return false
	}
	return walk(n)
}

// TestPortfolioEngineEnumerates exercises the portfolio oracle engine alone:
// the portfolio adapter must enumerate the exact model set of a simple
// predicate through its race-then-Next protocol.
func TestPortfolioEngineEnumerates(t *testing.T) {
	b := core.NewBuilder()
	ty := core.BV(8, false)
	in := b.Var(ty, "in")
	expr := b.Lt(in, b.BVConst(ty, 3))
	res := enumerate(newPortfolioSolver, expr, expr, in, CheckConfig{ListBound: 2, MaxModels: 10})
	if res.div != nil {
		t.Fatalf("portfolio enumeration diverged: %v", res.div)
	}
	if !res.sat || !res.exhausted || len(res.models) != 3 {
		t.Fatalf("portfolio enumeration: sat=%v exhausted=%v models=%d, want sat, exhausted, 3",
			res.sat, res.exhausted, len(res.models))
	}
}
