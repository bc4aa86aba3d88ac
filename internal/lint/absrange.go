package lint

import (
	"zen-go/internal/absint"
	"zen-go/internal/core"
)

// AbsRange is the linter's one context-sensitive walk. It lifts the
// abstract-interpretation presolve domains — known bits and unsigned
// intervals, plus truth facts about boolean nodes (internal/absint) —
// into the linter, refining the context at every branch condition on the
// way down, and reports what the refined contexts decide:
//
//   - ZL201: a conditional branch no reachable context can take. The
//     Builder folds syntactically constant conditions at build time; what
//     survives is semantic deadness — a condition that repeats, contradicts
//     or is absorbed by an enclosing one, or that value ranges decide.
//   - ZL601/ZL602: comparisons decided by value ranges.
//   - ZL603: non-constant expressions whose bits are all forced.
//
// Hash-consing means one node can sit in many path contexts (the Opt
// idiom re-uses If(ok, val, default) everywhere), so a finding is
// reported only when every reachable context agrees: a comparison decided
// true on one path and open on another is working exactly as intended,
// and a branch is dead only if no reachable context leaves it live.
//
// One walk sees both kinds of cause, so each finding is reported once, at
// its root. A dead branch whose condition reported ZL601/ZL602
// comparisons force (see rangeRooted) is those comparisons' finding. A
// range verdict that holds only because a reported dead branch pins a
// value below it is that branch's finding.
//
// The walk visits a node once per holder (absint.Analysis.Context), so
// contexts whose facts do not reach a node share one visit of it; absint's
// evaluation budget bounds the refined visits.
var AbsRange = &Analyzer{
	Name:  "absrange",
	Doc:   "dead branches, comparisons and values decided by known-bits + interval analysis",
	Codes: []string{"ZL201", "ZL601", "ZL602", "ZL603"},
	Run:   runAbsRange,
}

func runAbsRange(p *Pass) {
	w := &rangeWalker{
		p:       p,
		a:       absint.New(),
		dec:     make(map[*core.Node]*rangeDecision),
		sing:    make(map[*core.Node]*rangeSingleton),
		live:    make(map[*core.Node]*[2]bool),
		visited: make(map[*absint.Env]map[*core.Node]bool),

		fromDead: make(map[*core.Node]bool),
	}
	w.a.Index(p.Root)
	w.walk(p.Root, nil)
	var nodes []*core.Node
	for n := range w.live {
		nodes = append(nodes, n)
	}
	sortNodesByID(nodes)
	for _, n := range nodes {
		if !w.deadFinding(n) {
			continue
		}
		for i, which := range [2]string{"then", "else"} {
			if !w.live[n][i] {
				w.p.Reportf("ZL201", SevWarn, n,
					"the branch can be removed, or the enclosing condition is wrong",
					"%s-branch is dead in every context: condition %s is always decided by enclosing branch conditions",
					which, w.p.ExprString(n.Kids[0]))
			}
		}
	}
	nodes = nodes[:0]
	for n := range w.dec {
		nodes = append(nodes, n)
	}
	sortNodesByID(nodes)
	for _, n := range nodes {
		switch {
		case !w.rangeFinding(n):
			// undecided somewhere, context-dependent (working as
			// intended), or reported as the dead branch behind it
		case w.dec[n].f:
			w.p.Reportf("ZL601", SevWarn, n,
				"the comparison (or an enclosing guard) is wrong, or the branch is dead code",
				"comparison can never hold: the operand ranges are disjoint in every context")
		default:
			w.p.Reportf("ZL602", SevWarn, n,
				"drop the comparison, or tighten it to the case it was meant to exclude",
				"comparison always holds: the operand ranges decide it in every context")
		}
	}
	nodes = nodes[:0]
	for n := range w.sing {
		nodes = append(nodes, n)
	}
	sortNodesByID(nodes)
	for _, n := range nodes {
		s := w.sing[n]
		if s.same && !s.open && !w.fromDeadBranch(n) {
			w.p.Reportf("ZL603", SevInfo, n,
				"replace the expression with the constant (or fix the mask/shift forcing it)",
				"every bit of this %d-bit expression is forced: it always evaluates to %d",
				n.Type.Width, s.c)
		}
	}
}

// rangeDecision accumulates how a comparison evaluated across contexts.
type rangeDecision struct{ t, f, open bool }

// rangeSingleton accumulates whether a bitvector node was pinned to the
// same constant in every context.
type rangeSingleton struct {
	c          uint64
	seen, same bool
	open       bool
}

type rangeWalker struct {
	p       *Pass
	a       *absint.Analysis
	dec     map[*core.Node]*rangeDecision
	sing    map[*core.Node]*rangeSingleton
	live    map[*core.Node]*[2]bool             // per reachable If: {then, else} seen live
	visited map[*absint.Env]map[*core.Node]bool // per-context visit memo

	fromDead map[*core.Node]bool // fromDeadBranch memo
}

func (w *rangeWalker) walk(n *core.Node, e *absint.Env) {
	// A node observes the same under every context with the same
	// holder; contexts with another holder can decide it differently, so
	// they re-descend.
	e = w.a.Context(n, e)
	seen := w.visited[e]
	if seen == nil {
		seen = make(map[*core.Node]bool)
		w.visited[e] = seen
	}
	if seen[n] {
		return
	}
	seen[n] = true
	w.observe(n, e)
	switch n.Op {
	case core.OpIf:
		cond := n.Kids[0]
		w.walk(cond, e)
		et, okT := w.extend(e, cond, true, n.Kids[1])
		ef, okF := w.extend(e, cond, false, n.Kids[2])
		if okT || okF { // neither: the path itself is unreachable
			lv := w.live[n]
			if lv == nil {
				lv = new([2]bool)
				w.live[n] = lv
			}
			lv[0] = lv[0] || okT
			lv[1] = lv[1] || okF
		}
		if okT {
			w.walk(n.Kids[1], et)
		}
		if okF {
			w.walk(n.Kids[2], ef)
		}
	case core.OpAnd, core.OpOr:
		// The right operand only matters when the left does not decide
		// the connective, so it lives under the left's non-deciding
		// truth value. When the left always decides it, nothing reports
		// the unneeded operand, so it is walked under the enclosing
		// context instead, keeping dead branches inside it visible.
		w.walk(n.Kids[0], e)
		er, ok := w.extend(e, n.Kids[0], n.Op == core.OpAnd, n.Kids[1])
		if !ok {
			er = e
		}
		w.walk(n.Kids[1], er)
	default:
		for _, k := range n.Kids {
			w.walk(k, e)
		}
	}
}

// observe records how n evaluates under the current context.
func (w *rangeWalker) observe(n *core.Node, e *absint.Env) {
	switch {
	case (n.Op == core.OpEq || n.Op == core.OpLt) && n.Kids[0].Type.Kind == core.KindBV:
		d := w.dec[n]
		if d == nil {
			d = &rangeDecision{}
			w.dec[n] = d
		}
		if b, ok := w.a.Eval(n, e).AsBool(); !ok {
			d.open = true
		} else if b {
			d.t = true
		} else {
			d.f = true
		}
	case n.Type.Kind == core.KindBV && n.Op != core.OpConst && n.Op != core.OpVar:
		s := w.sing[n]
		if s == nil {
			s = &rangeSingleton{}
			w.sing[n] = s
		}
		if c, ok := w.a.Eval(n, e).AsConst(); !ok {
			s.open = true
		} else if !s.seen {
			s.seen, s.same, s.c = true, true, c
		} else if s.c != c {
			s.same = false
		}
	}
}

// extend refines the context with cond=truth for walking scope. The
// second result is false when the path cannot give cond that truth
// value — the guarded code is unreachable, so nothing below it is
// observed. A context that already decides cond is checked first: Assume
// decomposes a true And (a false Or) into its operands without meeting
// the connective's own fact, so it would miss that contradiction.
func (w *rangeWalker) extend(e *absint.Env, cond *core.Node, truth bool, scope *core.Node) (*absint.Env, bool) {
	if b, ok := w.a.Eval(cond, e).AsBool(); ok && b != truth {
		return nil, false
	}
	return w.a.Assume(e, cond, truth, scope)
}

// deadFinding reports whether n is an If reported as ZL201: a branch no
// reachable context takes, not forced by a range finding.
func (w *rangeWalker) deadFinding(n *core.Node) bool {
	lv := w.live[n]
	return lv != nil && !(lv[0] && lv[1]) && !w.rangeRooted(n.Kids[0], lv[0])
}

// rangeRooted reports whether comparisons reported as ZL601/ZL602
// force cond to v: cond itself, looking through Not, or the operands of
// an And/Or — one operand whose verdict decides the connective, or all of
// them when none can alone.
func (w *rangeWalker) rangeRooted(cond *core.Node, v bool) bool {
	cond, v = stripNot(cond, v)
	if w.rangeFinding(cond) {
		return true
	}
	if cond.Op != core.OpAnd && cond.Op != core.OpOr {
		return false
	}
	one := (cond.Op == core.OpAnd) != v // an operand equal to v decides it
	for _, k := range cond.Kids {
		k, kv := stripNot(k, v)
		if forced := w.rangeFinding(k) && w.dec[k].t == kv; forced == one {
			return one
		}
	}
	return !one
}

// rangeFinding reports whether n is a comparison reported as ZL601/ZL602:
// every context decided it, the same way, and not through a dead branch.
func (w *rangeWalker) rangeFinding(n *core.Node) bool {
	d := w.dec[n]
	return d != nil && !d.open && d.t != d.f && !w.fromDeadBranch(n)
}

// fromDeadBranch reports whether n's range verdict rests on a reported
// dead branch: n is one, or it reads one through operands that the
// context-free analysis leaves undecided. The recursion only descends
// the DAG (deadFinding looks at n's condition), so it terminates.
func (w *rangeWalker) fromDeadBranch(n *core.Node) bool {
	v, ok := w.fromDead[n]
	if ok {
		return v
	}
	v = n.Op == core.OpIf && w.deadFinding(n)
	if !v && !decidedAlone(w.a.Eval(n, nil)) {
		for _, k := range n.Kids {
			if w.fromDeadBranch(k) {
				v = true
				break
			}
		}
	}
	w.fromDead[n] = v
	return v
}

// decidedAlone reports whether a context-free value is already decided.
func decidedAlone(v absint.Value) bool {
	_, b := v.AsBool()
	_, c := v.AsConst()
	return b || c
}

// stripNot looks through negations of n, tracking the value v it must
// take.
func stripNot(n *core.Node, v bool) (*core.Node, bool) {
	for n.Op == core.OpNot {
		n, v = n.Kids[0], !v
	}
	return n, v
}
