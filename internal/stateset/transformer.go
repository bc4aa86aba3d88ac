package stateset

import (
	"fmt"

	"zen-go/internal/bdd"
	"zen-go/internal/core"
	"zen-go/internal/obs"
	"zen-go/internal/sym"
)

// Transformer is a relation between the values of an input and an output
// type, built from a Zen expression. TransformForward computes the image of
// a set under the relation; TransformReverse computes the preimage.
type Transformer struct {
	w        *World
	canonIn  *Region // region of input sets
	privIn   *Region // nil when the canonical region's order was reused
	out      *Region
	rel      bdd.Ref
	usedPerm []int
}

// Transformer builds the relation of the function expressed by `expr` over
// input variable varID (of type inType), producing outType values.
func (w *World) Transformer(expr *core.Node, varID int32, inType, outType *core.Type) *Transformer {
	mustListFree(inType)
	mustListFree(outType)

	rec := w.begin("transformer")
	defer rec.End()
	if w.Obs != nil {
		m := core.Measure(expr)
		rec.SetDAG(m.Nodes, m.Depth, m.Vars)
	}
	stop := rec.Phase("build")
	defer func() {
		stop()
		w.harvest(rec)
	}()

	// Variable-ordering heuristic (§6): group input bits the model
	// compares for equality/order or copies across positions.
	var groups *unionFind
	if !w.DisableOrderingHeuristic {
		groups = analyzeGroups(expr, varID, inType)
	}

	// The first transformer to touch a type fixes its canonical order; a
	// later transformer whose groups the canonical order does not satisfy
	// gets a fresh space, converted to at runtime by BDD substitution.
	key := inType.String()
	var canon *Region
	if _, exists := w.regions[key]; !exists && groups != nil {
		canon = w.regionWithPerm(inType, permFromGroups(groups, inType.NumBits(0)), key)
	} else {
		canon = w.Region(inType)
	}
	inRegion := canon
	var priv *Region
	if groups != nil && !groupsSatisfiedBy(groups, canon) && !w.DisableFreshSpaces {
		perm := permFromGroups(groups, inType.NumBits(0))
		pkey := fmt.Sprintf("%s#%v", inType, perm)
		priv = w.regionWithPerm(inType, perm, pkey)
		inRegion = priv
	}

	out := w.Region(outType)

	res := sym.Eval[bdd.Ref](w.alg, expr, sym.Env[bdd.Ref]{varID: inRegion.inVal})
	bits := flattenBits(res)
	if len(bits) != out.bits {
		panic("stateset: output bit-count mismatch")
	}
	rel := bdd.True
	for j := len(bits) - 1; j >= 0; j-- {
		y := w.man.Var(out.outLvl[j])
		rel = w.man.And(rel, w.man.Iff(y, bits[j]))
	}
	ss := obs.StateSetStats{Transformers: 1}
	if priv != nil {
		ss.FreshSpaces = 1
	}
	rec.Add(obs.Snapshot{StateSet: ss})
	rec.Event("fresh-space", priv != nil)
	return &Transformer{w: w, canonIn: canon, privIn: priv,
		out: out, rel: rel, usedPerm: inRegion.perm}
}

// spaceMap maps one region's in-levels onto another's, bit by bit.
func spaceMap(from, to *Region) map[int]int {
	m := make(map[int]int, from.bits)
	for i := 0; i < from.bits; i++ {
		m[from.inLvls[i]] = to.inLvls[i]
	}
	return m
}

// UsesFreshSpace reports whether this transformer allocated a private
// variable space (exposed for tests and ablations).
func (t *Transformer) UsesFreshSpace() bool { return t.privIn != nil }

// InputRegion returns the canonical input region.
func (t *Transformer) InputRegion() *Region { return t.canonIn }

// OutputRegion returns the output region.
func (t *Transformer) OutputRegion() *Region { return t.out }

// Forward computes the image { f(x) | x ∈ s }.
func (t *Transformer) Forward(s Set) Set {
	if s.reg != t.canonIn {
		panic("stateset: Forward set has wrong type")
	}
	rec := t.w.begin("forward")
	defer rec.End()
	stop := rec.Phase("forward")
	cur := s.ref
	in := t.canonIn
	if t.privIn != nil {
		// Substitute the set into this transformer's private space.
		cur = t.w.man.Substitute(cur, spaceMap(t.canonIn, t.privIn))
		in = t.privIn
	}
	img := t.w.man.AndExists(cur, t.rel, in.inVarSet())
	img = t.w.man.Replace(img, t.out.outToIn())
	stop()
	rec.Add(obs.Snapshot{StateSet: obs.StateSetStats{Forwards: 1}})
	t.w.harvest(rec)
	return Set{w: t.w, reg: t.out, ref: img}
}

// Reverse computes the preimage { x | f(x) ∈ s }.
func (t *Transformer) Reverse(s Set) Set {
	if s.reg != t.out {
		panic("stateset: Reverse set has wrong type")
	}
	rec := t.w.begin("reverse")
	defer rec.End()
	stop := rec.Phase("reverse")
	shifted := t.w.man.Replace(s.ref, t.out.inToOut())
	pre := t.w.man.AndExists(t.rel, shifted, t.out.outVarSet())
	if t.privIn != nil {
		// Substitute back into the canonical space.
		pre = t.w.man.Substitute(pre, spaceMap(t.privIn, t.canonIn))
	}
	stop()
	rec.Add(obs.Snapshot{StateSet: obs.StateSetStats{Reverses: 1}})
	t.w.harvest(rec)
	return Set{w: t.w, reg: t.canonIn, ref: pre}
}

// projection returns the bit range of n when n is a pure projection
// (GetField chain) of the input variable.
func projection(n *core.Node, varID int32) (offset, width int, ok bool) {
	switch n.Op {
	case core.OpVar:
		if n.VarID != varID {
			return 0, 0, false
		}
		return 0, n.Type.NumBits(0), true
	case core.OpGetField:
		off, _, ok := projection(n.Kids[0], varID)
		if !ok {
			return 0, 0, false
		}
		t := n.Kids[0].Type
		for i := 0; i < n.Index; i++ {
			off += t.Fields[i].Type.NumBits(0)
		}
		return off, t.Fields[n.Index].Type.NumBits(0), true
	}
	return 0, 0, false
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// flattenBits lays a list-free symbolic value out as bits in fresh-call
// (type) order.
func flattenBits(v *sym.Val[bdd.Ref]) []bdd.Ref {
	var out []bdd.Ref
	var rec func(v *sym.Val[bdd.Ref])
	rec = func(v *sym.Val[bdd.Ref]) {
		switch v.Typ.Kind {
		case core.KindBool:
			out = append(out, v.Bit)
		case core.KindBV:
			// Fresh-call order is MSB first (see sym.Fresh); lay the
			// output bits out the same way so they pair with the
			// region's levels.
			for i := len(v.Bits) - 1; i >= 0; i-- {
				out = append(out, v.Bits[i])
			}
		case core.KindObject:
			for _, f := range v.Fields {
				rec(f)
			}
		default:
			panic("stateset: list values not supported")
		}
	}
	rec(v)
	return out
}
