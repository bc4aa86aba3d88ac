// Package fuzz is Zen's cross-backend differential-testing harness. It
// generates random typed expression DAGs over the core node vocabulary,
// runs each through every execution path of the system — concrete
// interpretation, BDD and SAT solving, compiled execution, and state-set
// transformers — and checks that all paths agree (oracle.go). Any
// divergence is minimized by a greedy DAG shrinker (shrink.go) and printed
// as a compilable regression test (repro.go).
//
// The paper's architecture stakes everything on one model feeding many
// backends; this package is the safety net that keeps those backends in
// provable agreement while they are optimized independently.
package fuzz

import (
	"fmt"
	"math/rand"

	"zen-go/internal/core"
	"zen-go/internal/cost"
	"zen-go/internal/interp"
)

// Config bounds the random generator.
type Config struct {
	// MaxDepth bounds expression tree depth.
	MaxDepth int
	// MaxTypeDepth bounds nesting of generated input types.
	MaxTypeDepth int
	// MaxFields bounds fields per generated object type.
	MaxFields int
	// ListLen bounds the length of generated concrete lists (usually the
	// solver's list bound, so bound-overflow edges are exercised by +1
	// cons chains on top of generated lists).
	ListLen int
	// MaxWidth bounds bitvector widths (wide ints stress overflow paths
	// but slow solvers; campaigns default to 16 with occasional 64).
	MaxWidth int
	// Lists enables list types and list operators.
	Lists bool
}

// DefaultConfig returns the campaign default generator bounds.
func DefaultConfig() Config {
	return Config{MaxDepth: 5, MaxTypeDepth: 2, MaxFields: 3, ListLen: 2, MaxWidth: 16, Lists: true}
}

// Gen is a deterministic random DAG generator. All expressions from one Gen
// share one Builder (and may share structure).
type Gen struct {
	B   *core.Builder
	rng *rand.Rand
	cfg Config

	// pool indexes every generated node by type, enabling reuse (shared
	// sub-DAGs) and cross-type operand picking (Eq over any type).
	pool    map[string][]*core.Node
	types   []*core.Type // types present in pool, for operand-type picking
	seen    map[string]bool
	objSeq  int
	binders int
}

// NewGen returns a generator with its own Builder, seeded deterministically.
func NewGen(seed int64, cfg Config) *Gen {
	return &Gen{
		B:    core.NewBuilder(),
		rng:  rand.New(rand.NewSource(seed)),
		cfg:  cfg,
		pool: make(map[string][]*core.Node),
		seen: make(map[string]bool),
	}
}

// Predicate generates a random input type, a symbolic input variable of
// that type, and a boolean expression over it: one complete Find/Verify
// query for the differential oracle.
func (g *Gen) Predicate() (expr, in *core.Node) {
	t := g.genType(g.cfg.MaxTypeDepth, g.cfg.Lists)
	in = g.B.Var(t, "in")
	g.add(in)
	g.addProjections(in)
	expr = g.gen(core.Bool(), g.cfg.MaxDepth)
	return expr, in
}

// --- types ---

var widths = []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32, 48, 64}

func (g *Gen) genBVType() *core.Type {
	w := widths[g.rng.Intn(len(widths))]
	for w > g.cfg.MaxWidth && g.rng.Intn(8) != 0 { // wide ints stay rare
		w = widths[g.rng.Intn(len(widths))]
	}
	return core.BV(w, g.rng.Intn(2) == 0)
}

func (g *Gen) genType(depth int, allowList bool) *core.Type {
	r := g.rng.Intn(10)
	switch {
	case r < 2:
		return core.Bool()
	case r < 6 || depth <= 0:
		return g.genBVType()
	case r < 8 && allowList && g.cfg.Lists:
		// Lists of scalars or flat objects; nested lists explode the
		// guarded-union encoding for no extra operator coverage.
		return core.List(g.genType(depth-1, false))
	default:
		n := 1 + g.rng.Intn(g.cfg.MaxFields)
		fields := make([]core.Field, n)
		for i := range fields {
			fields[i] = core.Field{Name: fmt.Sprintf("F%d", i), Type: g.genType(depth-1, allowList)}
		}
		g.objSeq++
		return core.Object(fmt.Sprintf("Obj%d", g.objSeq), fields...)
	}
}

// --- pool ---

func (g *Gen) add(n *core.Node) {
	key := n.Type.String()
	if !g.seen[key] {
		g.seen[key] = true
		g.types = append(g.types, n.Type)
	}
	g.pool[key] = append(g.pool[key], n)
}

// addProjections seeds the pool with every field projection reachable from
// an object-typed node, so generated expressions actually read the input.
func (g *Gen) addProjections(n *core.Node) {
	if n.Type.Kind != core.KindObject {
		return
	}
	for i := range n.Type.Fields {
		f := g.B.GetField(n, i)
		g.add(f)
		g.addProjections(f)
	}
}

// fromPool returns a random pooled node of type t, or nil.
func (g *Gen) fromPool(t *core.Type) *core.Node {
	ns := g.pool[t.String()]
	if len(ns) == 0 {
		return nil
	}
	return ns[g.rng.Intn(len(ns))]
}

// pickType returns a random type to compare at (pool types are preferred so
// Eq actually constrains the input).
func (g *Gen) pickType(allowList bool) *core.Type {
	for tries := 0; tries < 4 && len(g.types) > 0; tries++ {
		t := g.types[g.rng.Intn(len(g.types))]
		if allowList || t.Kind != core.KindList {
			return t
		}
	}
	return g.genBVType()
}

// pickList returns a random pooled list node, or nil.
func (g *Gen) pickList() *core.Node {
	var lists []*core.Node
	for _, t := range g.types {
		if t.Kind == core.KindList {
			lists = append(lists, g.pool[t.String()]...)
		}
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[g.rng.Intn(len(lists))]
}

// --- expressions ---

// gen produces an expression of type t with the given depth budget, records
// it in the pool, and returns it.
func (g *Gen) gen(t *core.Type, depth int) *core.Node {
	n := g.genRaw(t, depth)
	g.add(n)
	return n
}

func (g *Gen) genRaw(t *core.Type, depth int) *core.Node {
	// Terminals: constants and pool reuse.
	if depth <= 0 || g.rng.Intn(6) == 0 {
		if p := g.fromPool(t); p != nil && g.rng.Intn(3) != 0 {
			return p
		}
		return g.constOf(t)
	}
	switch t.Kind {
	case core.KindBool:
		return g.genBool(depth)
	case core.KindBV:
		return g.genBV(t, depth)
	case core.KindObject:
		return g.genObject(t, depth)
	case core.KindList:
		return g.genList(t, depth)
	}
	panic("fuzz: unknown kind")
}

func (g *Gen) genBool(depth int) *core.Node {
	switch g.rng.Intn(12) {
	case 0:
		return g.B.Not(g.gen(core.Bool(), depth-1))
	case 1, 2:
		return g.B.And(g.gen(core.Bool(), depth-1), g.gen(core.Bool(), depth-1))
	case 3, 4:
		return g.B.Or(g.gen(core.Bool(), depth-1), g.gen(core.Bool(), depth-1))
	case 5, 6, 7:
		ct := g.pickType(true)
		return g.B.Eq(g.gen(ct, depth-1), g.gen(ct, depth-1))
	case 8, 9:
		ct := g.pickType(false)
		if ct.Kind != core.KindBV {
			ct = g.genBVType()
		}
		return g.B.Lt(g.gen(ct, depth-1), g.gen(ct, depth-1))
	case 10:
		return g.B.If(g.gen(core.Bool(), depth-1), g.gen(core.Bool(), depth-1), g.gen(core.Bool(), depth-1))
	default:
		if l := g.pickList(); l != nil {
			return g.genListCase(core.Bool(), l, depth)
		}
		return g.B.Not(g.gen(core.Bool(), depth-1))
	}
}

func (g *Gen) genBV(t *core.Type, depth int) *core.Node {
	switch g.rng.Intn(12) {
	case 0:
		return g.B.Add(g.gen(t, depth-1), g.gen(t, depth-1))
	case 1:
		return g.B.Sub(g.gen(t, depth-1), g.gen(t, depth-1))
	case 2:
		// Wide symbolic multiplication is a known blowup shape (see
		// lint.CostWideMul for the rationale). The width threshold lives
		// in internal/cost, shared with the lint advisor that flags the
		// same shape in user models. Narrow vectors only; wider types
		// fall through to addition.
		if t.Width <= cost.MulFriendlyWidth {
			return g.B.Mul(g.gen(t, depth-1), g.gen(t, depth-1))
		}
		return g.B.Add(g.gen(t, depth-1), g.constOf(t))
	case 3:
		return g.B.BAnd(g.gen(t, depth-1), g.gen(t, depth-1))
	case 4:
		return g.B.BOr(g.gen(t, depth-1), g.gen(t, depth-1))
	case 5:
		return g.B.BXor(g.gen(t, depth-1), g.gen(t, depth-1))
	case 6:
		return g.B.BNot(g.gen(t, depth-1))
	case 7:
		// Shift amounts deliberately reach width+1 to probe the
		// shift-out-of-range edge in every backend. On wide vectors only
		// edge amounts are drawn: mid-range shifts there are a known BDD
		// blowup shape (see lint.CostMidShift). The edge set comes from
		// internal/cost, which keeps this generator, the lint advisor and
		// the auto-backend predictor agreed on where "safe" ends.
		var amt int
		if t.Width > cost.WideShiftWidth {
			edges := cost.ShiftEdgeAmounts(t.Width)
			amt = edges[g.rng.Intn(len(edges))]
		} else {
			amt = g.rng.Intn(t.Width + 2)
		}
		if g.rng.Intn(2) == 0 {
			return g.B.Shl(g.gen(t, depth-1), amt)
		}
		return g.B.Shr(g.gen(t, depth-1), amt)
	case 8:
		// Cast from a different width/signedness: truncation and
		// (sign-)extension edges.
		from := g.genBVType()
		return g.B.Cast(g.gen(from, depth-1), t)
	case 9, 10:
		return g.B.If(g.gen(core.Bool(), depth-1), g.gen(t, depth-1), g.gen(t, depth-1))
	default:
		if l := g.pickList(); l != nil {
			return g.genListCase(t, l, depth)
		}
		return g.B.Add(g.gen(t, depth-1), g.constOf(t))
	}
}

func (g *Gen) genObject(t *core.Type, depth int) *core.Node {
	switch g.rng.Intn(4) {
	case 0:
		fields := make([]*core.Node, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = g.gen(f.Type, depth-1)
		}
		return g.B.Create(t, fields...)
	case 1:
		base := g.gen(t, depth-1)
		i := g.rng.Intn(len(t.Fields))
		return g.B.WithField(base, i, g.gen(t.Fields[i].Type, depth-1))
	default:
		return g.B.If(g.gen(core.Bool(), depth-1), g.gen(t, depth-1), g.gen(t, depth-1))
	}
}

func (g *Gen) genList(t *core.Type, depth int) *core.Node {
	switch g.rng.Intn(4) {
	case 0:
		return g.B.ListNil(t)
	case 1, 2:
		return g.B.ListCons(g.gen(t.Elem, depth-1), g.gen(t, depth-1))
	default:
		return g.B.If(g.gen(core.Bool(), depth-1), g.gen(t, depth-1), g.gen(t, depth-1))
	}
}

// genListCase eliminates a pooled list into a value of the result type. The
// head/tail binders are visible only while the cons branch is generated.
func (g *Gen) genListCase(result *core.Type, list *core.Node, depth int) *core.Node {
	empty := g.gen(result, depth-1)
	return g.B.ListCase(list, empty, func(head, tail *core.Node) *core.Node {
		saved, savedTypes, savedSeen := g.pool, g.types, g.seen
		g.pool = clonePool(saved)
		g.types = append([]*core.Type(nil), savedTypes...)
		g.seen = cloneSeen(savedSeen)
		g.add(head)
		g.add(tail)
		cons := g.gen(result, depth-1)
		g.pool, g.types, g.seen = saved, savedTypes, savedSeen
		return cons
	})
}

func clonePool(p map[string][]*core.Node) map[string][]*core.Node {
	out := make(map[string][]*core.Node, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

func cloneSeen(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// constOf returns a random constant expression of type t.
func (g *Gen) constOf(t *core.Type) *core.Node {
	switch t.Kind {
	case core.KindBool:
		return g.B.BoolConst(g.rng.Intn(2) == 0)
	case core.KindBV:
		return g.B.BVConst(t, g.randBits(t))
	case core.KindObject:
		fields := make([]*core.Node, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = g.constOf(f.Type)
		}
		return g.B.Create(t, fields...)
	case core.KindList:
		n := g.B.ListNil(t)
		for i := g.rng.Intn(g.cfg.ListLen + 1); i > 0; i-- {
			n = g.B.ListCons(g.constOf(t.Elem), n)
		}
		return n
	}
	panic("fuzz: unknown kind")
}

// randBits picks constants biased toward boundary values (0, 1, max, sign
// bit), where wraparound and signedness bugs live.
func (g *Gen) randBits(t *core.Type) uint64 {
	switch g.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return t.MaxUint()
	case 3:
		return uint64(1) << uint(t.Width-1) // smallest signed / highest bit
	default:
		return g.rng.Uint64() & t.MaxUint()
	}
}

// RandValue generates a random concrete value of type t with list lengths
// up to listLen, using the boundary-biased constant distribution.
func RandValue(rng *rand.Rand, t *core.Type, listLen int) *interp.Value {
	switch t.Kind {
	case core.KindBool:
		return interp.Bool(rng.Intn(2) == 0)
	case core.KindBV:
		g := &Gen{rng: rng}
		return interp.BV(t, g.randBits(t))
	case core.KindObject:
		fields := make([]*interp.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = RandValue(rng, f.Type, listLen)
		}
		return interp.Object(t, fields...)
	case core.KindList:
		n := rng.Intn(listLen + 1)
		elems := make([]*interp.Value, n)
		for i := range elems {
			elems[i] = RandValue(rng, t.Elem, listLen)
		}
		return interp.List(t, elems...)
	}
	panic("fuzz: unknown kind")
}
