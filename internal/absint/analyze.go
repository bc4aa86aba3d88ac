package absint

import (
	"math"

	"zen-go/internal/core"
)

// defaultBudget bounds the number of node evaluations per Analysis, so
// path-refined walks over adversarial DAGs degrade to top instead of
// hanging.
const defaultBudget = 1 << 20

// Analysis evaluates abstract values over one DAG. The zero context
// (nil *Env) is the memoized bottom-up pass; Assume derives refined
// contexts from branch conditions for the top-down pass. Index makes a
// refined context cost only what its facts touch. An Analysis is not
// safe for concurrent use; create one per walk.
type Analysis struct {
	memo   map[*core.Node]Value // context-free values of unindexed nodes
	cone   *cone                // nil until Index
	budget int
	writer []*Env  // per dirty chunk: the context that copied it and may write it
	stack  []int32 // markDirty scratch
}

// New returns an Analysis with the default evaluation budget.
func New() *Analysis {
	return &Analysis{memo: make(map[*core.Node]Value), budget: defaultBudget}
}

// cone is the dense index of the nodes reachable from one root. The
// parents of node i within the cone are up[off[i]:off[i+1]]; height[i]
// is its longest path to a leaf, so parents sit strictly higher.
type cone struct {
	idx     map[*core.Node]int32
	off, up []int32
	height  []int32
	free    []Value // context-free values, valid where done
	done    []bool
	hasFact []bool // some context holds a fact about the node
}

// Cone summarizes the DAG an Analysis is indexed over.
type Cone struct {
	Nodes    int   // distinct nodes reachable from the root
	FreeVars int   // input variables among them (list-case binders excluded)
	MaxVar   int32 // highest variable id, binders included
}

// Index walks the cone of root once, giving each node a dense slot and
// recording its parents. Afterwards a refined context tracks which
// indexed nodes its facts reach (see Env), and Eval answers every other
// node with its context-free value. That is exact: transfer reads the
// context only through facts in a node's cone.
// Nodes outside the index (built after the call) evaluate as before.
// Index replaces any earlier index; contexts derived before the call
// keep working, unindexed.
func (a *Analysis) Index(root *core.Node) Cone {
	c := &cone{idx: make(map[*core.Node]int32)}
	var nodes []*core.Node
	var height []int32
	var edges [][2]int32 // (kid, parent)
	var info Cone
	vars := make(map[int32]bool)
	bound := make(map[int32]bool)
	var walk func(n *core.Node) int32
	walk = func(n *core.Node) int32 {
		if i, ok := c.idx[n]; ok {
			return i
		}
		i := int32(len(nodes))
		c.idx[n] = i
		nodes = append(nodes, n)
		height = append(height, 0)
		if n.Op == core.OpVar {
			vars[n.VarID] = true
			info.MaxVar = max(info.MaxVar, n.VarID)
		}
		for _, b := range n.Bound {
			bound[b.VarID] = true
			info.MaxVar = max(info.MaxVar, b.VarID)
		}
		for _, k := range n.Kids {
			j := walk(k)
			edges = append(edges, [2]int32{j, i})
			height[i] = max(height[i], height[j]+1)
		}
		return i
	}
	walk(root)
	c.height = height
	info.Nodes = len(nodes)
	for id := range vars {
		if !bound[id] {
			info.FreeVars++
		}
	}
	c.off = make([]int32, len(nodes)+1)
	for _, e := range edges {
		c.off[e[0]+1]++
	}
	for i := range nodes {
		c.off[i+1] += c.off[i]
	}
	c.up = make([]int32, len(edges))
	fill := append([]int32(nil), c.off[:len(nodes)]...)
	for _, e := range edges {
		c.up[fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	c.free = make([]Value, len(nodes))
	c.done = make([]bool, len(nodes))
	c.hasFact = make([]bool, len(nodes))
	a.cone = c
	a.writer = make([]*Env, (len(nodes)+chunkBits-1)/chunkBits)
	return info
}

// Env is a refinement context: its own facts over a shared tail of its
// parent's, and a memo. Over the Analysis index it tracks which nodes its
// facts can reach: own holds the ancestors of its own facts, dirty those
// of every fact along the chain. Both are exact up to height limit;
// nodes above it evaluate in the context itself. Envs are immutable once
// returned by Assume.
type Env struct {
	parent *Env
	facts  []fact
	memo   map[*core.Node]Value
	cone   *cone    // the index the sets refer to; nil: no index
	dirty  []*chunk // per 512-node chunk, nil when empty; copy-on-write
	own    []*chunk
	limit  int32
}

type fact struct {
	n *core.Node
	v Value
}

const chunkBits = 512

type chunk [chunkBits / 64]uint64

func has(cs []*chunk, i int32) bool {
	c := cs[i/chunkBits]
	return c != nil && c[i%chunkBits/64]&(1<<(i%64)) != 0
}

// holder returns the context n (index slot i) must be evaluated under,
// given e: nil when no fact along the chain reaches it, else the
// innermost context whose own facts do. Between the two, n's value is
// the same in every context, so they share one memo entry.
func (a *Analysis) holder(e *Env, i int32) *Env {
	if e == nil || i < 0 || e.cone != a.cone || a.cone.height[i] > e.limit {
		return e
	}
	if !has(e.dirty, i) {
		return nil
	}
	for !has(e.own, i) {
		e = e.parent
	}
	return e
}

// Assume returns a context extending e (nil for the root context) with
// the facts implied by cond evaluating to truth: value facts about the
// compared operands, and the truth of cond (and of the branch conditions
// it decomposes into) as node-level facts. The second result is false
// when the assumption contradicts e — i.e. cond cannot have that truth
// value on this path, so the corresponding branch is unreachable.
//
// scope is the node the context will be used on (nil: any). Reach is
// tracked only up to its height, which keeps a fact about a widely
// shared node from marking the whole DAG above it; evaluation stays
// exact for every node either way.
func (a *Analysis) Assume(e *Env, cond *core.Node, truth bool, scope *core.Node) (*Env, bool) {
	ne := &Env{parent: e, limit: math.MaxInt32}
	if c := a.cone; c != nil && (e == nil || e.cone == c) {
		ne.cone = c
		if i, ok := c.idx[scope]; ok {
			ne.limit = c.height[i]
		}
		ne.own = make([]*chunk, len(a.writer))
		if e == nil {
			ne.dirty = make([]*chunk, len(a.writer))
		} else {
			ne.dirty = append([]*chunk(nil), e.dirty...)
			ne.limit = min(ne.limit, e.limit)
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
	met := meet(a.Eval(n, e), v)
	found := false
	for i := range e.facts {
		if e.facts[i].n == n {
			e.facts[i].v, found = met, true
		}
	}
	if !found {
		e.facts = append(e.facts, fact{n, met})
	}
	clear(e.memo) // values memoized before the fact may be too wide now
	if e.cone != nil {
		if i, ok := e.cone.idx[n]; ok {
			e.cone.hasFact[i] = true
			a.markDirty(e, i)
		}
	}
	return !met.Empty
}

// markDirty adds i and its ancestors up to e's height limit to e's own
// and dirty sets. The own set is closed under those ancestors, so the
// walk stops at nodes already in it. Dirty chunks shared with the parent
// context are copied before their first write.
func (a *Analysis) markDirty(e *Env, i int32) {
	c := e.cone
	if c.height[i] > e.limit || has(e.own, i) {
		return
	}
	set := func(i int32) {
		k, bit := i/chunkBits, uint64(1)<<(i%64)
		if e.own[k] == nil {
			e.own[k] = new(chunk)
		}
		e.own[k][i%chunkBits/64] |= bit
		if a.writer[k] != e {
			d := new(chunk)
			if old := e.dirty[k]; old != nil {
				*d = *old
			}
			e.dirty[k], a.writer[k] = d, e
		}
		e.dirty[k][i%chunkBits/64] |= bit
	}
	set(i)
	st := append(a.stack[:0], i)
	for len(st) > 0 {
		j := st[len(st)-1]
		st = st[:len(st)-1]
		for _, p := range c.up[c.off[j]:c.off[j+1]] {
			if c.height[p] <= e.limit && !has(e.own, p) {
				set(p)
				st = append(st, p)
			}
		}
	}
	a.stack = st
}

// Eval returns the abstract value of n under context e (nil for the
// context-free bottom-up value). Results are memoized per context; an
// indexed node is evaluated under its holder.
func (a *Analysis) Eval(n *core.Node, e *Env) Value {
	i := a.slot(n)
	if e = a.holder(e, i); e == nil {
		return a.free(n, i)
	}
	if v, ok := e.memo[n]; ok {
		return v
	}
	v, ok := a.fact(e, n, i)
	if !ok {
		// A context-free singleton cannot be refined further: the node
		// evaluates to that constant on every path, so contexts share it.
		if v = a.free(n, i); !v.pinned() {
			v = a.step(n, e)
		}
	}
	if e.memo == nil {
		e.memo = make(map[*core.Node]Value)
	}
	e.memo[n] = v
	return v
}

// Context returns the context a top-down walk should visit n under: the
// holder of n in e (nil when no fact of e reaches n). n evaluates, and
// every context a walk derives below it refines, exactly as under e, so
// walkers share one visit per holder. Each refined visit is charged to
// the evaluation budget; once that is spent, every visit gets nil, which
// is sound (the nil context only knows less).
func (a *Analysis) Context(n *core.Node, e *Env) *Env {
	if a.budget <= 0 {
		return nil
	}
	if e = a.holder(e, a.slot(n)); e != nil {
		a.budget--
	}
	return e
}

// slot returns n's index slot, or -1 when it is not indexed.
func (a *Analysis) slot(n *core.Node) int32 {
	if a.cone != nil {
		if i, ok := a.cone.idx[n]; ok {
			return i
		}
	}
	return -1
}

// free returns the context-free value of n, whose index slot is i (-1
// when unindexed).
func (a *Analysis) free(n *core.Node, i int32) Value {
	if i >= 0 {
		if a.cone.done[i] {
			return a.cone.free[i]
		}
	} else if v, ok := a.memo[n]; ok {
		return v
	}
	v := a.step(n, nil)
	if i >= 0 {
		a.cone.free[i], a.cone.done[i] = v, true
	} else {
		a.memo[n] = v
	}
	return v
}

// step applies n's transfer function under e, within the budget.
func (a *Analysis) step(n *core.Node, e *Env) Value {
	if a.budget <= 0 {
		return topOf(n.Type)
	}
	a.budget--
	return a.transfer(n, e).norm()
}

// fact returns the innermost fact about n along e's chain.
func (a *Analysis) fact(e *Env, n *core.Node, i int32) (Value, bool) {
	if i >= 0 && e.cone == a.cone && !a.cone.hasFact[i] {
		return Value{}, false
	}
	for ; e != nil; e = e.parent {
		for _, f := range e.facts {
			if f.n == n {
				return f.v, true
			}
		}
	}
	return Value{}, false
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
