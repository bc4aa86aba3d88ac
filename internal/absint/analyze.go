package absint

import "zen-go/internal/core"

// defaultBudget bounds the number of node evaluations per Analysis, so
// path-refined walks over adversarial DAGs degrade to top instead of
// hanging.
const defaultBudget = 1 << 20

// Analysis evaluates abstract values over one DAG. The zero context
// (nil *Env) is the memoized bottom-up pass; Assume derives refined
// contexts from branch conditions for the top-down pass. An Analysis is
// not safe for concurrent use; create one per walk.
type Analysis struct {
	memo   map[*core.Node]Value
	budget int
}

// New returns an Analysis with the default evaluation budget.
func New() *Analysis {
	return &Analysis{memo: make(map[*core.Node]Value), budget: defaultBudget}
}

// Env is a refinement context: facts assumed to hold on the current
// path, plus a memo valid only under those facts. Envs are immutable
// once returned by Assume.
type Env struct {
	facts map[*core.Node]Value
	memo  map[*core.Node]Value
}

// Assume returns a context extending e (nil for the root context) with
// the facts implied by cond evaluating to truth: value facts about the
// compared operands, and the truth of cond (and of the branch conditions
// it decomposes into) as node-level facts. The second result is false
// when the assumption contradicts e — i.e. cond cannot have that truth
// value on this path, so the corresponding branch is unreachable.
func (a *Analysis) Assume(e *Env, cond *core.Node, truth bool) (*Env, bool) {
	ne := &Env{facts: make(map[*core.Node]Value, 4), memo: make(map[*core.Node]Value)}
	if e != nil {
		for n, v := range e.facts {
			ne.facts[n] = v
		}
	}
	ok := a.assume(ne, cond, truth)
	return ne, ok
}

func (a *Analysis) assume(e *Env, cond *core.Node, truth bool) bool {
	switch cond.Op {
	case core.OpNot:
		return a.assume(e, cond.Kids[0], !truth)
	case core.OpAnd:
		if truth {
			return a.assume(e, cond.Kids[0], true) &&
				a.assume(e, cond.Kids[1], true)
		}
	case core.OpOr:
		if !truth {
			return a.assume(e, cond.Kids[0], false) &&
				a.assume(e, cond.Kids[1], false)
		}
	case core.OpEq:
		x, y := cond.Kids[0], cond.Kids[1]
		if x.Op == core.OpConst {
			x, y = y, x
		}
		if y.Op == core.OpConst && x.Op != core.OpConst {
			if !a.assumeEqConst(e, x, y, truth) {
				return false
			}
		}
	case core.OpLt:
		if !a.assumeLt(e, cond, truth) {
			return false
		}
	}
	if cond.Type.Kind == core.KindBool {
		if !a.refine(e, cond, boolVal(truth)) {
			return false
		}
	}
	return true
}

// assumeEqConst refines x under "x == c" (truth) or "x != c" (!truth)
// for a constant c.
func (a *Analysis) assumeEqConst(e *Env, x, c *core.Node, truth bool) bool {
	switch c.Type.Kind {
	case core.KindBool:
		return a.refine(e, x, boolVal(c.BVal == truth))
	case core.KindBV:
		if truth {
			return a.refine(e, x, bvConst(c.Type.Width, c.UVal))
		}
		// x != c only bites when c sits on an interval endpoint.
		cur := a.Eval(x, e)
		if cur.Kind != core.KindBV || cur.Empty {
			return true
		}
		r := cur.Rng
		switch {
		case r.Lo == c.UVal && r.Hi == c.UVal:
			return false // x must be c, yet x != c
		case r.Lo == c.UVal:
			r.Lo++
		case r.Hi == c.UVal:
			r.Hi--
		default:
			return true
		}
		return a.refine(e, x, bv(cur.Width, Bits{}, r))
	}
	return true
}

// assumeLt refines the operands of an unsigned x < y against a constant
// bound. Signed comparisons are skipped: their raw-bit ranges do not
// translate into interval constraints without known signs.
func (a *Analysis) assumeLt(e *Env, cond *core.Node, truth bool) bool {
	x, y := cond.Kids[0], cond.Kids[1]
	if x.Type.Kind != core.KindBV || x.Type.Signed {
		return true
	}
	m := maskOf(x.Type.Width)
	if y.Op == core.OpConst && x.Op != core.OpConst {
		c := y.UVal
		if truth { // x < c
			if c == 0 {
				return false
			}
			return a.refine(e, x, bv(x.Type.Width, Bits{}, Interval{0, c - 1}))
		}
		return a.refine(e, x, bv(x.Type.Width, Bits{}, Interval{c, m}))
	}
	if x.Op == core.OpConst && y.Op != core.OpConst {
		c := x.UVal
		if truth { // c < y
			if c == m {
				return false
			}
			return a.refine(e, y, bv(y.Type.Width, Bits{}, Interval{c + 1, m}))
		}
		return a.refine(e, y, bv(y.Type.Width, Bits{}, Interval{0, c}))
	}
	return true
}

// refine meets a new fact about n into the context; false on contradiction.
func (a *Analysis) refine(e *Env, n *core.Node, v Value) bool {
	cur, ok := e.facts[n]
	if !ok {
		cur = a.Eval(n, e)
	}
	met := meet(cur, v)
	e.facts[n] = met
	return !met.Empty
}

// Eval returns the abstract value of n under context e (nil for the
// context-free bottom-up value). Results are memoized per context.
func (a *Analysis) Eval(n *core.Node, e *Env) Value {
	memo := a.memo
	if e != nil {
		if v, ok := e.facts[n]; ok {
			return v
		}
		// A context-free singleton cannot be refined further: the node
		// evaluates to that constant on every path, so contexts may share
		// it. This keeps refined evaluation from re-walking the (often
		// large) constant-folded regions of the cone per context.
		if v, ok := a.memo[n]; ok && v.pinned() {
			return v
		}
		memo = e.memo
	}
	if v, ok := memo[n]; ok {
		return v
	}
	if a.budget <= 0 {
		return topOf(n.Type)
	}
	a.budget--
	v := a.transfer(n, e)
	if v.Kind == core.KindBV {
		v = v.norm()
	}
	memo[n] = v
	return v
}

func (a *Analysis) transfer(n *core.Node, e *Env) Value {
	switch n.Op {
	case core.OpConst:
		if n.Type.Kind == core.KindBool {
			return boolVal(n.BVal)
		}
		return bvConst(n.Type.Width, n.UVal)

	case core.OpVar:
		return topOf(n.Type)

	case core.OpNot:
		return tritVal(triNot(a.evalB(n.Kids[0], e)))
	case core.OpAnd:
		return tritVal(triAnd(a.evalB(n.Kids[0], e), a.evalB(n.Kids[1], e)))
	case core.OpOr:
		return tritVal(triOr(a.evalB(n.Kids[0], e), a.evalB(n.Kids[1], e)))

	case core.OpEq:
		return tritVal(absEq(a.Eval(n.Kids[0], e), a.Eval(n.Kids[1], e)))
	case core.OpLt:
		return tritVal(absLt(a.Eval(n.Kids[0], e), a.Eval(n.Kids[1], e), n.Kids[0].Type.Signed))

	case core.OpAdd, core.OpSub, core.OpMul, core.OpBAnd, core.OpBOr, core.OpBXor:
		x, y := a.evalBV(n.Kids[0], e, n.Type), a.evalBV(n.Kids[1], e, n.Type)
		w, m := n.Type.Width, maskOf(n.Type.Width)
		switch n.Op {
		case core.OpAdd:
			return bv(w, bitsAddCarry(x.Bits, y.Bits, m, false), rngAdd(x.Rng, y.Rng, m))
		case core.OpSub:
			return bv(w, bitsAddCarry(x.Bits, bitsNot(y.Bits, m), m, true), rngSub(x.Rng, y.Rng, m))
		case core.OpMul:
			return bv(w, bitsMul(x.Bits, y.Bits, m), rngMul(x.Rng, y.Rng, m))
		case core.OpBAnd:
			return bv(w, bitsAnd(x.Bits, y.Bits, m), rngAnd(x.Rng, y.Rng))
		case core.OpBOr:
			return bv(w, bitsOr(x.Bits, y.Bits, m), rngOr(x.Rng, y.Rng, m))
		default:
			return bv(w, bitsXor(x.Bits, y.Bits, m), rngXor(x.Rng, y.Rng, m))
		}

	case core.OpBNot:
		x := a.evalBV(n.Kids[0], e, n.Type)
		m := maskOf(n.Type.Width)
		return bv(n.Type.Width, bitsNot(x.Bits, m), rngNot(x.Rng, m))

	case core.OpShl:
		x := a.evalBV(n.Kids[0], e, n.Type)
		return bv(n.Type.Width, bitsShl(x.Bits, n.Index, n.Type.Width),
			rngShl(x.Rng, n.Index, maskOf(n.Type.Width)))
	case core.OpShr:
		x := a.evalBV(n.Kids[0], e, n.Type)
		return bv(n.Type.Width, bitsShr(x.Bits, n.Index, n.Type.Width), rngShr(x.Rng, n.Index))

	case core.OpIf:
		switch a.evalB(n.Kids[0], e) {
		case TritTrue:
			return a.Eval(n.Kids[1], e)
		case TritFalse:
			return a.Eval(n.Kids[2], e)
		}
		// Branch refinement happens in the top-down walkers (Simplify,
		// lint); the bottom-up value is the plain join so it stays
		// context-free and maximally shareable.
		return join(a.Eval(n.Kids[1], e), a.Eval(n.Kids[2], e))

	case core.OpCreate:
		fs := make([]Value, len(n.Kids))
		for i, k := range n.Kids {
			fs[i] = a.Eval(k, e)
		}
		return Value{Kind: core.KindObject, Fields: fs}

	case core.OpGetField:
		o := a.Eval(n.Kids[0], e)
		if o.Kind == core.KindObject && n.Index < len(o.Fields) {
			f := o.Fields[n.Index]
			if f.Kind == n.Type.Kind {
				return f
			}
		}
		return topOf(n.Type)

	case core.OpWithField:
		o := a.Eval(n.Kids[0], e)
		if o.Kind != core.KindObject || n.Index >= len(o.Fields) {
			return topOf(n.Type)
		}
		fs := append([]Value(nil), o.Fields...)
		fs[n.Index] = a.Eval(n.Kids[1], e)
		return Value{Kind: core.KindObject, Fields: fs}

	case core.OpListCase:
		// The scrutinee's length is not tracked; join both branches.
		// The binder variables evaluate to top (OpVar).
		return join(a.Eval(n.Kids[1], e), a.Eval(n.Kids[2], e))

	case core.OpAdapt:
		// Identity on the representation: pass the value through when the
		// representations visibly agree.
		v := a.Eval(n.Kids[0], e)
		if v.Kind == n.Type.Kind {
			switch n.Type.Kind {
			case core.KindBV:
				if v.Width == n.Type.Width {
					return v
				}
			case core.KindObject:
				if len(v.Fields) == len(n.Type.Fields) {
					return v
				}
			case core.KindBool:
				return v
			}
		}
		return topOf(n.Type)

	case core.OpCast:
		return a.castValue(a.Eval(n.Kids[0], e), n.Kids[0].Type, n.Type)
	}
	return topOf(n.Type)
}

func (a *Analysis) castValue(v Value, from, to *core.Type) Value {
	if v.Kind != core.KindBV || from.Kind != core.KindBV || to.Kind != core.KindBV || v.Empty {
		return topOf(to)
	}
	m := maskOf(to.Width)
	if to.Width <= from.Width {
		// Truncation: drop high bits; the interval survives only when it
		// fits the narrower width.
		r := Interval{0, m}
		if v.Rng.Hi <= m {
			r = v.Rng
		}
		return bv(to.Width, Bits{Zeros: v.Bits.Zeros & m, Ones: v.Bits.Ones & m}, r)
	}
	ext := m &^ maskOf(from.Width)
	if !from.Signed {
		return bv(to.Width, Bits{Zeros: v.Bits.Zeros | ext, Ones: v.Bits.Ones}, v.Rng)
	}
	sign := uint64(1) << uint(from.Width-1)
	neg, known := signOf(v.Bits, sign)
	switch {
	case known && !neg:
		return bv(to.Width, Bits{Zeros: v.Bits.Zeros | ext, Ones: v.Bits.Ones}, v.Rng)
	case known && neg:
		// All high bits replicate the set sign bit; raw values shift to
		// the top of the wider range, so only the bits survive.
		return bv(to.Width, Bits{Zeros: v.Bits.Zeros, Ones: v.Bits.Ones | ext}, Interval{0, m})
	default:
		return bv(to.Width, Bits{Zeros: v.Bits.Zeros &^ sign, Ones: v.Bits.Ones &^ sign}, Interval{0, m})
	}
}

// evalB evaluates a node expected to be boolean, tolerating malformed
// DAGs (lint runs on deliberately broken models).
func (a *Analysis) evalB(n *core.Node, e *Env) Trit {
	v := a.Eval(n, e)
	if v.Kind != core.KindBool || v.Empty {
		return TritBoth
	}
	return v.B
}

// evalBV evaluates a node expected to share the bitvector type t.
func (a *Analysis) evalBV(n *core.Node, e *Env, t *core.Type) Value {
	v := a.Eval(n, e)
	if v.Kind != core.KindBV || v.Width != t.Width || v.Empty {
		return topOf(t)
	}
	return v
}
