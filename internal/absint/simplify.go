package absint

import "zen-go/internal/core"

// maxEnvs caps how many refined contexts one Simplify pass may create;
// past the cap, branches are rewritten under their parent context
// (sound, merely less precise). A context costs only the facts it adds
// and the nodes they reach (see Analysis.Index), but a fact can reach
// far: two ACL lines with the same prefix share a comparison node, so
// "the earlier line did not match" reaches the whole if-chain between
// them, and each context along that stretch rewrites it again.
const maxEnvs = 256

// envWorkBudget scales the cap with the DAG: the effective cap is
// envWorkBudget/nodes, floored at minEnvs. Small models get the full
// maxEnvs precision; presolving a huge query DAG stays roughly linear in
// its size instead of maxEnvs times it.
const (
	envWorkBudget = 1 << 18
	minEnvs       = 8
)

// Stats summarizes what one Simplify call achieved.
type Stats struct {
	NodesBefore     int // distinct nodes reachable from the input root
	NodesAfter      int // distinct nodes reachable from the output root
	Folds           int // nodes replaced by constants from abstract values
	ComparesDecided int // Eq/Lt nodes among those folds
	BranchesPruned  int // If branches removed (definite or contradictory cond)
	SlicedInputs    int // input variables the output no longer mentions
}

// Result is the outcome of a Simplify call. Root is semantically equal
// to the input for every concrete assignment of its variables; Builder
// owns the rewritten nodes (the caller's builder when one was passed).
type Result struct {
	Root    *core.Node
	Builder *core.Builder
	Stats   Stats
}

// Simplify rewrites root using the abstract values: constant folding
// where a value is pinned, comparison elimination where intervals are
// disjoint or nested, branch pruning where a condition is definite or
// contradicts the enclosing guards, and — as a byproduct of pruning —
// cone-of-influence slicing of inputs that can no longer reach the root.
//
// Pass the builder that owns root to rewrite in place (hash-consing then
// shares nodes with the original); pass nil to rewrite into a fresh
// private builder. Variable nodes are never rewritten, so variable
// identities survive for model decoding, and fresh list-case binders are
// allocated past the input's highest variable id so they cannot collide.
//
// Simplify is idempotent for DAGs within the refinement work budget
// (envWorkBudget/maxEnvs nodes): simplifying a result again (with its
// own builder) returns the same root pointer. Above that size the env
// cap scales with the DAG, so a second call over the (smaller) output
// may get more contexts and refine further — sound, just not a fixed
// point; the differential fuzz oracle checks idempotence on in-budget
// expressions only.
func Simplify(b *core.Builder, root *core.Node) Result {
	reuse := b != nil
	if b == nil {
		b = core.NewBuilder()
	}
	s := &simplifier{a: New(), b: b, reuse: reuse}
	cone := s.a.Index(root)
	b.ReserveVars(cone.MaxVar)
	s.st.NodesBefore, s.st.SlicedInputs = cone.Nodes, cone.FreeVars
	s.envCap = maxEnvs
	if n := s.st.NodesBefore; n > 0 && envWorkBudget/n < s.envCap {
		s.envCap = envWorkBudget / n
		if s.envCap < minEnvs {
			s.envCap = minEnvs
		}
	}
	// Iterate to a fixpoint: one pass can build a node late (from already
	// rewritten pieces) that the next pass folds — e.g. a connective whose
	// operand only became a refinable comparison after rewriting. Passes
	// strictly simplify, so convergence is fast; the cap is a backstop.
	// Each pass indexes its input; the last index measures the output.
	out := root
	for pass := 0; ; pass++ {
		in := out
		out = s.rw(in, nil, make(map[*core.Node]*core.Node))
		s.reuse = true // the pass interned its output into b
		if out == in {
			break
		}
		cone = s.a.Index(out)
		if pass == 16 {
			break
		}
		s.envs = 0
	}
	s.st.NodesAfter = cone.Nodes
	s.st.SlicedInputs -= cone.FreeVars
	if s.st.SlicedInputs < 0 {
		s.st.SlicedInputs = 0
	}
	return Result{Root: out, Builder: b, Stats: s.st}
}

type simplifier struct {
	a      *Analysis
	b      *core.Builder
	st     Stats
	reuse  bool // root's nodes belong to b: unchanged nodes may be returned as-is
	envs   int
	envCap int
}

func (s *simplifier) rw(n *core.Node, e *Env, memo map[*core.Node]*core.Node) *core.Node {
	if out, ok := memo[n]; ok {
		return out
	}
	out := s.rewrite(n, e, memo)
	memo[n] = out
	return out
}

func (s *simplifier) rewrite(n *core.Node, e *Env, memo map[*core.Node]*core.Node) *core.Node {
	switch n.Op {
	case core.OpVar:
		return n
	case core.OpConst:
		if s.reuse {
			return n
		}
		if n.Type.Kind == core.KindBool {
			return s.b.BoolConst(n.BVal)
		}
		return s.b.BVConst(n.Type, n.UVal)
	}

	// Fold whole subtrees whose abstract value is pinned.
	switch n.Type.Kind {
	case core.KindBool:
		if bval, ok := s.a.Eval(n, e).AsBool(); ok {
			if n.Op == core.OpEq || n.Op == core.OpLt {
				s.st.ComparesDecided++
			} else {
				s.st.Folds++
			}
			return s.b.BoolConst(bval)
		}
	case core.KindBV:
		if v := s.a.Eval(n, e); v.Kind == core.KindBV && v.Width == n.Type.Width {
			if c, ok := v.AsConst(); ok {
				s.st.Folds++
				return s.b.BVConst(n.Type, c)
			}
		}
	}

	switch n.Op {
	case core.OpAnd, core.OpOr:
		// The right conjunct only matters when the left one does not
		// already decide the result, so it may be rewritten under the
		// left's non-deciding truth value — this is where if-chains that
		// the builder rewrote into boolean connectives get their
		// refinement. A contradiction means the left operand is pinned.
		truth := n.Op == core.OpAnd
		x := s.rw(n.Kids[0], e, memo)
		// Refine on the rewritten operand: facts the original obscured
		// (e.g. a comparison whose right side just folded to a constant)
		// decompose only in the simplified form.
		er, erMemo, ok := s.extend(e, memo, x, truth, n.Kids[1])
		if !ok {
			s.st.Folds++
			return s.b.BoolConst(!truth)
		}
		y := s.rw(n.Kids[1], er, erMemo)
		if s.reuse && x == n.Kids[0] && y == n.Kids[1] {
			return n
		}
		if n.Op == core.OpAnd {
			return s.b.And(x, y)
		}
		return s.b.Or(x, y)

	case core.OpIf:
		cond := n.Kids[0]
		c := s.rw(cond, e, memo)
		if c.Op == core.OpConst {
			s.st.BranchesPruned++
			if c.BVal {
				return s.rw(n.Kids[1], e, memo)
			}
			return s.rw(n.Kids[2], e, memo)
		}
		et, etMemo, okT := s.extend(e, memo, c, true, n.Kids[1])
		if !okT {
			// cond cannot be true on this path: the then branch is dead.
			s.st.BranchesPruned++
			return s.rw(n.Kids[2], e, memo)
		}
		ef, efMemo, okF := s.extend(e, memo, c, false, n.Kids[2])
		if !okF {
			s.st.BranchesPruned++
			return s.rw(n.Kids[1], et, etMemo)
		}
		t := s.rw(n.Kids[1], et, etMemo)
		f := s.rw(n.Kids[2], ef, efMemo)
		if s.reuse && c == cond && t == n.Kids[1] && f == n.Kids[2] {
			return n
		}
		return s.b.If(c, t, f)

	case core.OpListCase:
		list := s.rw(n.Kids[0], e, memo)
		empty := s.rw(n.Kids[1], e, memo)
		cons := s.rw(n.Kids[2], e, memo) // binder vars pass through untouched
		// When the rewritten scrutinee became a literal Nil or Cons the
		// case reduces; the substituted branch goes back through rw so
		// facts about the head/tail expressions keep folding.
		switch list.Op {
		case core.OpListNil:
			return empty
		case core.OpListCons:
			red := s.subst(cons, map[*core.Node]*core.Node{n.Bound[0]: list.Kids[0], n.Bound[1]: list.Kids[1]})
			return s.rw(red, e, memo)
		}
		if s.reuse && list == n.Kids[0] && empty == n.Kids[1] && cons == n.Kids[2] {
			return n
		}
		return s.b.ListCase(list, empty, func(h, t *core.Node) *core.Node {
			return s.subst(cons, map[*core.Node]*core.Node{n.Bound[0]: h, n.Bound[1]: t})
		})
	}

	kids := make([]*core.Node, len(n.Kids))
	changed := !s.reuse
	for i, k := range n.Kids {
		kids[i] = s.rw(k, e, memo)
		if kids[i] != k {
			changed = true
		}
	}
	if !changed {
		return n
	}
	return rebuild(s.b, n, kids)
}

// extend derives the refined context for rewriting scope, under the env
// cap.
func (s *simplifier) extend(e *Env, memo map[*core.Node]*core.Node, cond *core.Node, truth bool, scope *core.Node) (*Env, map[*core.Node]*core.Node, bool) {
	if s.envs >= s.envCap {
		return e, memo, true
	}
	s.envs++
	ne, ok := s.a.Assume(e, cond, truth, scope)
	if !ok {
		return e, memo, false
	}
	return ne, make(map[*core.Node]*core.Node), true
}

// subst rewrites n with the given variable substitution applied,
// rebuilding only the spine that changes.
func (s *simplifier) subst(n *core.Node, sub map[*core.Node]*core.Node) *core.Node {
	memo := make(map[*core.Node]*core.Node)
	var walk func(n *core.Node) *core.Node
	walk = func(n *core.Node) *core.Node {
		if r, ok := sub[n]; ok {
			return r
		}
		if r, ok := memo[n]; ok {
			return r
		}
		out := n
		switch n.Op {
		case core.OpVar, core.OpConst:
			// not substituted: unchanged
		case core.OpListCase:
			list := walk(n.Kids[0])
			empty := walk(n.Kids[1])
			cons := walk(n.Kids[2])
			if list != n.Kids[0] || empty != n.Kids[1] || cons != n.Kids[2] {
				out = s.b.ListCase(list, empty, func(h, t *core.Node) *core.Node {
					return s.subst(cons, map[*core.Node]*core.Node{n.Bound[0]: h, n.Bound[1]: t})
				})
			}
		default:
			kids := make([]*core.Node, len(n.Kids))
			changed := false
			for i, k := range n.Kids {
				kids[i] = walk(k)
				if kids[i] != k {
					changed = true
				}
			}
			if changed {
				out = rebuild(s.b, n, kids)
			}
		}
		memo[n] = out
		return out
	}
	return walk(n)
}

// rebuild reconstructs n with new kids through the Builder constructors,
// picking up their local simplifications. OpListCase is handled by the
// callers (it needs binder bookkeeping).
func rebuild(b *core.Builder, n *core.Node, kids []*core.Node) *core.Node {
	switch n.Op {
	case core.OpNot:
		return b.Not(kids[0])
	case core.OpAnd:
		return b.And(kids[0], kids[1])
	case core.OpOr:
		return b.Or(kids[0], kids[1])
	case core.OpEq:
		return b.Eq(kids[0], kids[1])
	case core.OpLt:
		return b.Lt(kids[0], kids[1])
	case core.OpAdd:
		return b.Add(kids[0], kids[1])
	case core.OpSub:
		return b.Sub(kids[0], kids[1])
	case core.OpMul:
		return b.Mul(kids[0], kids[1])
	case core.OpBAnd:
		return b.BAnd(kids[0], kids[1])
	case core.OpBOr:
		return b.BOr(kids[0], kids[1])
	case core.OpBXor:
		return b.BXor(kids[0], kids[1])
	case core.OpBNot:
		return b.BNot(kids[0])
	case core.OpShl:
		return b.Shl(kids[0], n.Index)
	case core.OpShr:
		return b.Shr(kids[0], n.Index)
	case core.OpIf:
		return b.If(kids[0], kids[1], kids[2])
	case core.OpCreate:
		return b.Create(n.Type, kids...)
	case core.OpGetField:
		return b.GetField(kids[0], n.Index)
	case core.OpWithField:
		return b.WithField(kids[0], n.Index, kids[1])
	case core.OpListNil:
		return b.ListNil(n.Type)
	case core.OpListCons:
		return b.ListCons(kids[0], kids[1])
	case core.OpAdapt:
		return b.Adapt(n.Type, kids[0])
	case core.OpCast:
		return b.Cast(kids[0], n.Type)
	}
	return n
}
