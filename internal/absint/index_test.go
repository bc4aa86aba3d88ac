package absint_test

import (
	"math/rand"
	"reflect"
	"testing"

	"zen-go/internal/absint"
	"zen-go/internal/core"
	"zen-go/internal/fuzz"
)

// cone lists the nodes reachable from root, kids first.
func cone(root *core.Node) []*core.Node {
	var out []*core.Node
	seen := map[*core.Node]bool{}
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, k := range n.Kids {
			walk(k)
		}
		out = append(out, n)
	}
	walk(root)
	return out
}

// TestIndexedEvalMatchesUnindexed is the differential check of the cone
// index: on generated DAGs, under random chains of Assume (with random
// scopes), every node evaluates to the same value with the index as
// without it, in every context of the chain.
func TestIndexedEvalMatchesUnindexed(t *testing.T) {
	cfg := fuzz.DefaultConfig()
	for seed := int64(1); seed <= 400; seed++ {
		expr, _ := fuzz.NewGen(seed, cfg).Predicate()
		nodes := cone(expr)
		var conds []*core.Node
		for _, n := range nodes {
			if n.Type.Kind == core.KindBool {
				conds = append(conds, n)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		plain, indexed := absint.New(), absint.New()
		if got := indexed.Index(expr); got.Nodes != len(nodes) {
			t.Fatalf("seed %d: Index counted %d nodes, want %d", seed, got.Nodes, len(nodes))
		}
		type pair struct{ p, i *absint.Env }
		envs := []pair{{}}
		for step := 0; step < 8; step++ {
			parent := envs[rng.Intn(len(envs))]
			cond := conds[rng.Intn(len(conds))]
			truth := rng.Intn(2) == 0
			var scope *core.Node
			if rng.Intn(3) > 0 {
				scope = nodes[rng.Intn(len(nodes))]
			}
			p, okP := plain.Assume(parent.p, cond, truth, nil)
			i, okI := indexed.Assume(parent.i, cond, truth, scope)
			if okP != okI {
				t.Fatalf("seed %d step %d: Assume feasibility differs: plain %v, indexed %v", seed, step, okP, okI)
			}
			if !okP {
				continue
			}
			envs = append(envs, pair{p, i})
			for _, e := range []pair{envs[len(envs)-1], envs[rng.Intn(len(envs))]} {
				for _, n := range nodes {
					want, got := plain.Eval(n, e.p), indexed.Eval(n, e.i)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d step %d: %s\n  unindexed %+v\n  indexed   %+v", seed, step, n, want, got)
					}
				}
			}
		}
	}
}
