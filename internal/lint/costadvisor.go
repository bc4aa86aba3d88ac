package lint

import (
	"zen-go/internal/core"
	"zen-go/internal/cost"
)

// CostAdvisor flags DAG shapes the solver backends are known to choke on,
// using the shared hazard table in costpatterns.go (the same table the
// differential fuzzer's generator steers around). A model can be
// perfectly correct and still unsolvable in practice; these findings say
// which backend will struggle and why, before a Find call hangs.
var CostAdvisor = &Analyzer{
	Name:  "costadvisor",
	Doc:   "solver-cost hazards (BDD/SAT blowup shapes) from the shared cost-pattern table",
	Codes: []string{"ZL501", "ZL502", "ZL503"},
	Run:   runCostAdvisor,
}

func runCostAdvisor(p *Pass) {
	arith := arithSubtrees(p.Root)

	reported := make(map[*core.Node]bool)
	deepest, deepestDepth := (*core.Node)(nil), 0

	// Walk tracking whether an arithmetic operator encloses the node and
	// how deep the list-case nesting is. Nodes are revisited only when a
	// flag flips from false to true, bounding the walk at two visits.
	type key struct {
		n         *core.Node
		underArit bool
	}
	visited := make(map[key]bool)
	var walk func(n *core.Node, underArith bool, caseDepth int)
	walk = func(n *core.Node, underArith bool, caseDepth int) {
		k := key{n, underArith}
		if visited[k] {
			return
		}
		visited[k] = true

		switch n.Op {
		case core.OpMul:
			if n.Type.Width > cost.MulFriendlyWidth && !reported[n] &&
				(n.Kids[0].Op != core.OpConst || n.Kids[1].Op != core.OpConst) {
				reported[n] = true
				p.ReportCost(PatternFor(CostWideMul), n,
					"symbolic multiplication at width %d (safe limit %d)",
					n.Type.Width, cost.MulFriendlyWidth)
			}
		case core.OpShl, core.OpShr:
			if cost.MidRangeShift(n.Type.Width, n.Index) && !reported[n] &&
				(underArith || arith[n.Kids[0]]) {
				reported[n] = true
				p.ReportCost(PatternFor(CostMidShift), n,
					"shift by %d on a %d-bit vector combined with arithmetic",
					n.Index, n.Type.Width)
			}
		case core.OpListCase:
			caseDepth++
			if caseDepth > deepestDepth {
				deepestDepth, deepest = caseDepth, n
			}
		}

		nextArith := underArith || isArith(n.Op)
		for _, kid := range n.Kids {
			walk(kid, nextArith, caseDepth)
		}
	}
	walk(p.Root, false, 0)

	if deepestDepth > cost.DeepCaseDepth {
		p.ReportCost(PatternFor(CostDeepLists), deepest,
			"list eliminations nested %d deep (advisory limit %d)",
			deepestDepth, cost.DeepCaseDepth)
	}
}

func isArith(op core.Op) bool {
	return op == core.OpAdd || op == core.OpSub || op == core.OpMul
}

// arithSubtrees marks nodes whose subtree contains an arithmetic operator
// (carry chains), the ingredient that makes mid-range shifts expensive.
func arithSubtrees(root *core.Node) map[*core.Node]bool {
	m := make(map[*core.Node]bool)
	var walk func(n *core.Node) bool
	walk = func(n *core.Node) bool {
		if b, ok := m[n]; ok {
			return b
		}
		m[n] = false
		b := isArith(n.Op)
		for _, k := range n.Kids {
			if walk(k) {
				b = true
			}
		}
		m[n] = b
		return b
	}
	walk(root)
	return m
}
