package absint

import (
	"zen-go/internal/core"
	"zen-go/internal/cost"
)

// Predictor decision thresholds, calibrated against the recorded
// portfolio win statistics in EXPERIMENTS.md: SAT won every large
// recorded race (acl-find/4000, routemap-find/60, minesweeper-1fail,
// where BDD is intractable), while the small cached BDD path dominates
// serve traffic (serve/query-cold ≈ 50µs).
const (
	bigDAGNodes  = 4096
	bigLiveBits  = 512
	arithHeavyOp = 16
)

// Choice is a predicted backend, in the wire spelling zend accepts.
type Choice string

// Backend choices.
const (
	ChooseBDD       Choice = "bdd"
	ChooseSAT       Choice = "sat"
	ChoosePortfolio Choice = "portfolio"
)

// Features are the statically extracted signals the predictor ranks
// backends on. They are computed on the (presolved) query DAG, so the
// sliced width reflects what a solver will actually see.
type Features struct {
	Nodes     int // distinct DAG nodes
	LiveVars  int // free input variables in the cone of influence
	LiveBits  int // total decision bits those inputs expand to
	Muxes     int // OpIf count
	Compares  int // OpEq/OpLt count
	Arith     int // OpAdd/OpSub/OpMul count
	WideMuls  int // multiplications wider than cost.MulFriendlyWidth
	MidShifts int // mid-range shifts on wide vectors
	CaseDepth int // deepest OpListCase nesting
	// LooseBV is the fraction of non-constant bitvector nodes whose
	// abstract interval is the full range — high values mean the
	// interval analysis found no structure to exploit.
	LooseBV float64
}

// ExtractFeatures computes the predictor features for root. The listBound
// converts input types to decision-bit counts the way the symbolic
// backends do; a is reused when the caller already analyzed the DAG.
func ExtractFeatures(a *Analysis, root *core.Node, listBound int) Features {
	if a == nil {
		a = New()
	}
	var f Features
	seen := make(map[*core.Node]bool)
	depth := make(map[*core.Node]int)
	varBits := make(map[int32]int)
	bound := make(map[int32]bool)
	bvNodes, tightBV := 0, 0
	var walk func(n *core.Node) int
	walk = func(n *core.Node) int {
		if seen[n] {
			return depth[n]
		}
		seen[n] = true
		f.Nodes++
		d := 0
		for _, k := range n.Kids {
			if kd := walk(k); kd > d {
				d = kd
			}
		}
		switch n.Op {
		case core.OpVar:
			varBits[n.VarID] = n.Type.NumBits(listBound)
		case core.OpIf:
			f.Muxes++
		case core.OpEq, core.OpLt:
			f.Compares++
		case core.OpAdd, core.OpSub:
			f.Arith++
		case core.OpMul:
			f.Arith++
			if n.Type.Kind == core.KindBV && n.Type.Width > cost.MulFriendlyWidth {
				f.WideMuls++
			}
		case core.OpShl, core.OpShr:
			if n.Type.Kind == core.KindBV && cost.MidRangeShift(n.Type.Width, n.Index) {
				f.MidShifts++
			}
		case core.OpListCase:
			for _, bn := range n.Bound {
				bound[bn.VarID] = true
			}
			d++
		}
		if n.Op != core.OpConst && n.Type.Kind == core.KindBV {
			bvNodes++
			if a.Eval(n, nil).Tight() {
				tightBV++
			}
		}
		depth[n] = d
		if d > f.CaseDepth {
			f.CaseDepth = d
		}
		return d
	}
	walk(root)
	for id, nb := range varBits {
		if !bound[id] {
			f.LiveVars++
			f.LiveBits += nb
		}
	}
	if bvNodes > 0 {
		f.LooseBV = float64(bvNodes-tightBV) / float64(bvNodes)
	}
	return f
}

// Choose ranks the backends for these features and explains the pick.
func (f Features) Choose() (Choice, string) {
	switch {
	case f.WideMuls > 0:
		return ChooseSAT, "wide multiplication is BDD-hostile"
	case f.MidShifts > 0 && f.Arith > 0:
		return ChooseSAT, "mid-range shifts feeding arithmetic explode BDD orderings"
	case f.CaseDepth > cost.DeepCaseDepth:
		return ChoosePortfolio, "deep list-case nesting is risky for every single engine"
	case f.Nodes >= bigDAGNodes || f.LiveBits >= bigLiveBits:
		return ChooseSAT, "large sliced DAG favors CDCL search over BDD construction"
	case f.Arith >= arithHeavyOp && f.LooseBV > 0.5:
		return ChoosePortfolio, "arithmetic-heavy with loose ranges: outcome uncertain, race it"
	default:
		return ChooseBDD, "small boolean cone: BDD enumeration is cheap and cacheable"
	}
}

// Predict analyzes root and returns the backend pick with its reason.
func Predict(root *core.Node, listBound int) (Choice, string) {
	return ExtractFeatures(New(), root, listBound).Choose()
}
