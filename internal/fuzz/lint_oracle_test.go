package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"zen-go/internal/interp"
	"zen-go/internal/lint"
)

// TestDeadBranchSoundness is the semantic oracle for ZL201: a branch the
// linter calls dead can never be taken, so replacing the conditional by
// its live branch must leave the predicate's value unchanged on every
// input. Random inputs cannot prove that, but any one disagreement proves
// the finding unsound.
func TestDeadBranchSoundness(t *testing.T) {
	const seeds, inputs = 3000, 64
	cfg := DefaultConfig()
	findings := 0
	for seed := int64(1); seed <= seeds; seed++ {
		g := NewGen(seed, cfg)
		expr, in := g.Predicate()
		for _, d := range lint.Run(expr, in) {
			if d.Code != "ZL201" {
				continue
			}
			findings++
			live := d.Node.Kids[1] // else dead
			if strings.HasPrefix(d.Msg, "then-branch") {
				live = d.Node.Kids[2]
			}
			pruned := replaceNode(g.B, expr, d.Node, live)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < inputs; i++ {
				x := RandValue(rng, in.Type, cfg.ListLen)
				env := interp.Env{in.VarID: x}
				if want, got := interp.Eval(expr, env).B, interp.Eval(pruned, env).B; want != got {
					t.Fatalf("seed %d: unsound ZL201 (%s)\n  at %s\n  input %v: predicate %v, with the dead branch removed %v",
						seed, d.Msg, d.Expr, x, want, got)
				}
			}
		}
	}
	t.Logf("%d ZL201 findings checked over %d seeds", findings, seeds)
}
