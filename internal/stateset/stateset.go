// Package stateset implements Zen's state-set abstraction: BDD-represented
// sets of values and relations ("transformers") between them, with
// TransformForward and TransformReverse computed by relational products.
//
// This is the machinery behind the paper's StateSet<T> and
// StateSetTransformer<I,O> (§4) and its two variable-ordering optimizations
// (§6): (1) interleaving variables that models compare for equality, and
// (2) giving a transformer whose preferred ordering conflicts with the
// established one a fresh set of variables, converted between at transform
// time with a BDD substitution.
//
// State sets are supported for list-free types (scalars and nested structs
// of scalars); the paper's set-based analyses operate on packet-like types.
package stateset

import (
	"fmt"
	"math/big"

	"zen-go/internal/backends"
	"zen-go/internal/bdd"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/sym"
)

// World owns the BDD manager and the variable regions of every type that
// participates in set computations. Transformers and sets from the same
// World compose; mixing worlds panics.
type World struct {
	man *bdd.Manager
	alg *backends.BDD

	regions map[string]*Region
	nextLvl int

	// Heuristics toggles (exposed for the ablation benchmarks).
	DisableOrderingHeuristic bool
	DisableFreshSpaces       bool

	// Obs and Tracer, when non-nil, receive telemetry for every
	// transformer build and transform executed in this world.
	Obs    *obs.Stats
	Tracer obs.Tracer

	// lastBDD is the manager-counter snapshot at the previous harvest;
	// per-operation records report the delta since then.
	lastBDD bdd.Stats
}

// begin opens a telemetry record for one world operation.
func (w *World) begin(op string) *obs.Rec {
	return obs.Begin(w.Obs, w.Tracer, "stateset", op)
}

// harvest adds the BDD-manager counter delta since the last harvest to the
// record, so concurrent-free sequential ops partition the manager's work.
func (w *World) harvest(r *obs.Rec) {
	s := w.man.Stats()
	r.Add(obs.Snapshot{BDD: obs.BDDStats{
		Nodes:       int64(s.Nodes - w.lastBDD.Nodes),
		CacheHits:   s.CacheHits - w.lastBDD.CacheHits,
		CacheMisses: s.CacheMiss - w.lastBDD.CacheMiss,
		UniqueHits:  s.UniqueHits - w.lastBDD.UniqueHits,
	}})
	w.lastBDD = s
}

// NewWorld returns an empty World.
func NewWorld() *World {
	man := bdd.New(0)
	alg := &backends.BDD{Man: man}
	return &World{man: man, alg: alg, regions: make(map[string]*Region)}
}

// Manager exposes the underlying BDD manager (for analyses that need raw
// access, e.g. atomic predicates).
func (w *World) Manager() *bdd.Manager { return w.man }

// Region is the variable layout for one type: each decision bit i of the
// type owns a pair of adjacent BDD levels — one for "input" (set) variables
// and one for "output" (next-state) variables — placed according to the
// region's bit permutation.
type Region struct {
	typ  *core.Type
	base int
	bits int
	perm []int // perm[i] = rank of fresh-call i within the region

	inVal  *sym.Val[bdd.Ref] // canonical symbolic input over in-levels
	inDec  *sym.Input[bdd.Ref]
	inLvls []int // in-level of fresh-call i
	outLvl []int // out-level of fresh-call i
}

// InLevels returns the input variable levels of the region in fresh-call
// order (exposed for analyses needing raw BDD access).
func (r *Region) InLevels() []int { return r.inLvls }

// Type returns the region's value type.
func (r *Region) Type() *core.Type { return r.typ }

func mustListFree(t *core.Type) {
	switch t.Kind {
	case core.KindList:
		panic("stateset: state sets require list-free types")
	case core.KindObject:
		for _, f := range t.Fields {
			mustListFree(f.Type)
		}
	}
}

// Region returns the canonical variable region for a type, creating it with
// the identity bit order on first use.
func (w *World) Region(t *core.Type) *Region {
	return w.regionWithPerm(t, nil, t.String())
}

// regionWithPerm creates or fetches a region under the given cache key. A
// nil perm means identity order.
func (w *World) regionWithPerm(t *core.Type, perm []int, key string) *Region {
	if r, ok := w.regions[key]; ok {
		return r
	}
	mustListFree(t)
	bits := t.NumBits(0)
	if perm == nil {
		perm = make([]int, bits)
		for i := range perm {
			perm[i] = i
		}
	}
	r := &Region{typ: t, base: w.nextLvl, bits: bits, perm: perm,
		inLvls: make([]int, bits), outLvl: make([]int, bits)}
	for i := 0; i < bits; i++ {
		r.inLvls[i] = r.base + 2*perm[i]
		r.outLvl[i] = r.base + 2*perm[i] + 1
	}
	w.nextLvl += 2 * bits

	// Allocate the canonical symbolic input over the in-levels.
	call := 0
	w.alg.Order = func(i int, name string) int {
		lvl := r.inLvls[call]
		call++
		return lvl
	}
	r.inDec = sym.Fresh[bdd.Ref](w.alg, t, 0, "set."+t.String())
	w.alg.Order = nil
	r.inVal = r.inDec.Val
	w.regions[key] = r
	return r
}

func (r *Region) inVarSet() bdd.VarSet {
	vs := make(bdd.VarSet, len(r.inLvls))
	copy(vs, r.inLvls)
	sortLevels(vs)
	return vs
}

func (r *Region) outVarSet() bdd.VarSet {
	vs := make(bdd.VarSet, len(r.outLvl))
	copy(vs, r.outLvl)
	sortLevels(vs)
	return vs
}

func sortLevels(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// outToIn renames output levels to input levels (order-preserving, since
// pairs are adjacent).
func (r *Region) outToIn() map[int]int {
	m := make(map[int]int, len(r.outLvl))
	for i := range r.outLvl {
		m[r.outLvl[i]] = r.inLvls[i]
	}
	return m
}

func (r *Region) inToOut() map[int]int {
	m := make(map[int]int, len(r.inLvls))
	for i := range r.inLvls {
		m[r.inLvls[i]] = r.outLvl[i]
	}
	return m
}

// Set is a BDD-represented set of values of a region's type, expressed over
// the region's input variables.
type Set struct {
	w   *World
	reg *Region
	ref bdd.Ref
}

// Empty returns the empty set of type t.
func (w *World) Empty(t *core.Type) Set {
	return Set{w: w, reg: w.Region(t), ref: bdd.False}
}

// Full returns the set of all values of type t.
func (w *World) Full(t *core.Type) Set {
	return Set{w: w, reg: w.Region(t), ref: bdd.True}
}

// FromPredicate builds the set {x | pred(x)} from a boolean-valued
// expression over the input variable varID.
func (w *World) FromPredicate(t *core.Type, expr *core.Node, varID int32) Set {
	rec := w.begin("set")
	defer rec.End()
	if w.Obs != nil {
		m := core.Measure(expr)
		rec.SetDAG(m.Nodes, m.Depth, m.Vars)
	}
	reg := w.Region(t)
	stop := rec.Phase("symeval")
	out := sym.Eval[bdd.Ref](w.alg, expr, sym.Env[bdd.Ref]{varID: reg.inVal})
	stop()
	w.harvest(rec)
	return Set{w: w, reg: reg, ref: out.Bit}
}

// Singleton returns the one-element set {v}.
func (w *World) Singleton(v *interp.Value) Set {
	reg := w.Region(v.Type)
	c := constSym(w.alg, v)
	return Set{w: w, reg: reg, ref: sym.Eq[bdd.Ref](w.alg, reg.inVal, c)}
}

func constSym(alg sym.Algebra[bdd.Ref], v *interp.Value) *sym.Val[bdd.Ref] {
	switch v.Type.Kind {
	case core.KindBool:
		if v.B {
			return sym.BoolVal(alg.True())
		}
		return sym.BoolVal(alg.False())
	case core.KindBV:
		return sym.ConstBV(alg, v.Type, v.U)
	case core.KindObject:
		fields := make([]*sym.Val[bdd.Ref], len(v.Fields))
		for i, f := range v.Fields {
			fields[i] = constSym(alg, f)
		}
		return sym.ObjectVal(v.Type, fields...)
	}
	panic("stateset: list values not supported in sets")
}

func (s Set) check(o Set) {
	if s.w != o.w {
		panic("stateset: sets from different worlds")
	}
	if s.reg != o.reg {
		panic("stateset: sets over different types")
	}
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	s.check(o)
	return Set{w: s.w, reg: s.reg, ref: s.w.man.Or(s.ref, o.ref)}
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	s.check(o)
	return Set{w: s.w, reg: s.reg, ref: s.w.man.And(s.ref, o.ref)}
}

// Minus returns s \ o.
func (s Set) Minus(o Set) Set {
	s.check(o)
	return Set{w: s.w, reg: s.reg, ref: s.w.man.And(s.ref, s.w.man.Not(o.ref))}
}

// Complement returns the complement of s within its type.
func (s Set) Complement() Set {
	return Set{w: s.w, reg: s.reg, ref: s.w.man.Not(s.ref)}
}

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return s.ref == bdd.False }

// IsFull reports whether the set contains every value of its type.
func (s Set) IsFull() bool { return s.ref == bdd.True }

// Equal reports set equality (canonical BDDs make this O(1)).
func (s Set) Equal(o Set) bool {
	s.check(o)
	return s.ref == o.ref
}

// Subset reports whether s ⊆ o.
func (s Set) Subset(o Set) bool {
	s.check(o)
	return s.w.man.And(s.ref, s.w.man.Not(o.ref)) == bdd.False
}

// Ref exposes the raw BDD (for analyses like atomic predicates).
func (s Set) Ref() bdd.Ref { return s.ref }

// Region returns the set's variable region.
func (s Set) Region() *Region { return s.reg }

// WithRef returns a set over the same region with a replaced BDD.
func (s Set) WithRef(r bdd.Ref) Set { return Set{w: s.w, reg: s.reg, ref: r} }

// Count returns the number of elements in the set.
func (s Set) Count() *big.Int {
	n := s.w.man.NumVars()
	total := s.w.man.SatCount(s.ref, n)
	// SatCount ranges over every level in the world; divide out the
	// don't-care levels that do not belong to this set's input variables.
	shift := uint(n - s.reg.bits)
	return total.Rsh(total, shift)
}

// Element returns an arbitrary element of the set, or ok=false if empty.
func (s Set) Element() (*interp.Value, bool) {
	assign, ok := s.w.man.AnySat(s.ref, s.w.man.NumVars())
	if !ok {
		return nil, false
	}
	v := s.reg.inDec.Decode(func(r bdd.Ref) bool {
		lvl := s.w.man.Level(r)
		return lvl < len(assign) && assign[lvl] == 1
	})
	return v, true
}

// Contains reports whether the set contains the concrete value v.
func (s Set) Contains(v *interp.Value) bool {
	return !s.Intersect(s.w.Singleton(v)).IsEmpty()
}

// String summarizes the set.
func (s Set) String() string {
	return fmt.Sprintf("Set<%s>{count=%v}", s.reg.typ, s.Count())
}

// Cubes enumerates the set as HSA-style wildcard cubes, up to max entries
// (0 = no limit). Each cube covers a rectangle of the header space; the
// cubes are disjoint and their union is the set.
func (s Set) Cubes(max int) []*sym.Cube {
	var out []*sym.Cube
	s.w.man.AllSat(s.ref, s.w.man.NumVars(), func(cube []int8) bool {
		c := s.reg.inDec.DecodeCube(func(r bdd.Ref) int8 {
			lvl := s.w.man.Level(r)
			if lvl >= len(cube) {
				return -1
			}
			return cube[lvl]
		})
		out = append(out, c)
		return max == 0 || len(out) < max
	})
	return out
}
