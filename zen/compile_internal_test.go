package zen

import (
	"math/rand"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/fuzz"
	"zen-go/internal/interp"
)

// TestCompileEvalMatchesInterp runs generated predicates, with and
// without lists, through the evaluator Compile returns and checks every
// result against the interpreter. Both paths must occur: the bitslice
// plan for list-free predicates and the interpreter for the rest.
func TestCompileEvalMatchesInterp(t *testing.T) {
	cfg := fuzz.DefaultConfig()
	rng := rand.New(rand.NewSource(17))
	plans, interpreted := 0, 0
	for i := 0; i < 300; i++ {
		expr, in := fuzz.NewGen(int64(i), cfg).Predicate()
		eval := compileEval(buildOptions(nil), expr, in)
		if plan, _ := planFor(nil, expr, []*core.Node{in}); plan != nil {
			plans++
		} else {
			interpreted++
		}
		for j := 0; j < 8; j++ {
			x := fuzz.RandValue(rng, in.Type, cfg.ListLen)
			want := interp.Eval(expr, interp.Env{in.VarID: x})
			if got := eval(x); !got.Equal(want) {
				t.Fatalf("predicate %d, input %s: compiled %s, interpreted %s\n  expr: %s", i, x, got, want, expr)
			}
		}
	}
	t.Logf("%d predicates ran on a plan, %d on the interpreter", plans, interpreted)
	if plans == 0 || interpreted == 0 {
		t.Fatalf("%d predicates ran on a plan and %d on the interpreter, want both", plans, interpreted)
	}
}
