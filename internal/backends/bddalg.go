// Package backends adapts the system's solver substrates — the BDD engine,
// the CDCL SAT solver (via Tseitin bit-blasting), and Kleene ternary logic —
// to the sym.Algebra interface, so a single symbolic evaluator serves every
// analysis backend (Figure 2 of the paper).
package backends

import (
	"zen-go/internal/bdd"
	"zen-go/internal/cancel"
	"zen-go/internal/obs"
	"zen-go/internal/sat"
	"zen-go/internal/sym"
)

// Interruptible is implemented by backends that support cooperative
// cancellation. Arming a check makes subsequent solver work poll it
// periodically and unwind with cancel.Abort when it fails; the caller
// must recover the abort (see cancel.Trap).
type Interruptible interface {
	SetInterrupt(cancel.Check)
}

// BDD is the binary-decision-diagram backend. Fresh variables receive
// consecutive BDD levels unless a VarOrder hook assigns them explicitly.
type BDD struct {
	Man *bdd.Manager

	// NextLevel is the level the next Fresh call will use when Order is
	// nil.
	NextLevel int

	// Order, when non-nil, maps the i-th Fresh call (0-based) to an
	// explicit BDD level. It enables the variable-ordering heuristics of
	// the transformer machinery.
	Order func(i int, name string) int

	freshCount int
	levelOf    map[bdd.Ref]int
	model      []int8
}

// NewBDD returns a BDD backend over a fresh manager.
func NewBDD() *BDD {
	return &BDD{Man: bdd.New(0), levelOf: make(map[bdd.Ref]int)}
}

// True etc. implement sym.Algebra[bdd.Ref].
func (b *BDD) True() bdd.Ref            { return bdd.True }
func (b *BDD) False() bdd.Ref           { return bdd.False }
func (b *BDD) Not(x bdd.Ref) bdd.Ref    { return b.Man.Not(x) }
func (b *BDD) And(x, y bdd.Ref) bdd.Ref { return b.Man.And(x, y) }
func (b *BDD) Or(x, y bdd.Ref) bdd.Ref  { return b.Man.Or(x, y) }
func (b *BDD) Xor(x, y bdd.Ref) bdd.Ref { return b.Man.Xor(x, y) }
func (b *BDD) Ite(c, t, f bdd.Ref) bdd.Ref {
	return b.Man.Ite(c, t, f)
}

// Fresh allocates a new BDD variable.
func (b *BDD) Fresh(name string) bdd.Ref {
	level := b.NextLevel
	if b.Order != nil {
		level = b.Order(b.freshCount, name)
	} else {
		b.NextLevel++
	}
	b.freshCount++
	r := b.Man.Var(level)
	if b.levelOf == nil {
		b.levelOf = make(map[bdd.Ref]int)
	}
	b.levelOf[r] = level
	return r
}

// IsTrue and IsFalse report constant-ness.
func (b *BDD) IsTrue(x bdd.Ref) bool  { return x == bdd.True }
func (b *BDD) IsFalse(x bdd.Ref) bool { return x == bdd.False }

// Solve finds a satisfying assignment of the constraint, retaining it for
// BitValue.
func (b *BDD) Solve(constraint bdd.Ref) bool {
	assign, ok := b.Man.AnySat(constraint, b.Man.NumVars())
	if !ok {
		return false
	}
	b.model = assign
	return true
}

// BitValue reports the model value of a Fresh-allocated variable. Don't-care
// variables default to false.
func (b *BDD) BitValue(x bdd.Ref) bool {
	level, ok := b.levelOf[x]
	if !ok {
		panic("backends: BitValue on non-fresh BDD ref")
	}
	if level >= len(b.model) {
		return false
	}
	return b.model[level] == 1
}

// SetInterrupt arms a cancellation check on the underlying manager,
// implementing Interruptible.
func (b *BDD) SetInterrupt(chk cancel.Check) { b.Man.SetInterrupt(chk) }

// ReportInto harvests the manager's counters into a telemetry snapshot,
// implementing obs.Reporter.
func (b *BDD) ReportInto(s *obs.Snapshot) {
	ms := b.Man.Stats()
	s.BDD.Nodes += int64(ms.Nodes)
	s.BDD.CacheHits += ms.CacheHits
	s.BDD.CacheMisses += ms.CacheMiss
	s.BDD.UniqueHits += ms.UniqueHits
}

var (
	_ sym.Solver[bdd.Ref] = (*BDD)(nil)
	_ obs.Reporter        = (*BDD)(nil)
	_ Interruptible       = (*BDD)(nil)
)

// SAT is the bit-blasting backend: boolean structure is encoded into CNF
// with the Tseitin transformation over a CDCL solver. This mirrors the
// paper's "SMT" backend, which encodes Zen operations in the bitvector
// theory and bit-blasts to SAT.
type SAT struct {
	S *sat.Solver

	lTrue   sat.Lit // literal constrained true
	gates   map[gateKey]sat.Lit
	isFresh map[sat.Lit]bool
}

type gateKey struct {
	op   uint8
	a, b sat.Lit
}

const (
	gateAnd uint8 = iota
	gateXor
)

// NewSAT returns a SAT backend over a fresh solver.
func NewSAT() *SAT {
	s := &SAT{S: sat.New(), gates: make(map[gateKey]sat.Lit), isFresh: make(map[sat.Lit]bool)}
	v := s.S.NewVar()
	s.lTrue = sat.MkLit(v, false)
	s.S.AddClause(s.lTrue)
	return s
}

// WithSolver returns a SAT algebra bound to w, sharing the receiver's
// Tseitin gate cache. w must use the receiver's variable numbering — in
// practice a Clone of its solver. The portfolio uses this to race cloned
// workers over one encoding and to keep enumerating on the winner; the
// shared gate cache must not be used from two goroutines at once (during
// a race the workers only Solve, which never touches it).
func (s *SAT) WithSolver(w *sat.Solver) *SAT {
	return &SAT{S: w, lTrue: s.lTrue, gates: s.gates, isFresh: s.isFresh}
}

// True etc. implement sym.Algebra[sat.Lit].
func (s *SAT) True() sat.Lit          { return s.lTrue }
func (s *SAT) False() sat.Lit         { return s.lTrue.Not() }
func (s *SAT) Not(x sat.Lit) sat.Lit  { return x.Not() }
func (s *SAT) IsTrue(x sat.Lit) bool  { return x == s.lTrue }
func (s *SAT) IsFalse(x sat.Lit) bool { return x == s.lTrue.Not() }
func (s *SAT) Fresh(name string) sat.Lit {
	l := sat.MkLit(s.S.NewVar(), false)
	s.isFresh[l] = true
	return l
}

// And returns a literal equivalent to x AND y, adding Tseitin clauses.
func (s *SAT) And(x, y sat.Lit) sat.Lit {
	switch {
	case s.IsFalse(x) || s.IsFalse(y):
		return s.False()
	case s.IsTrue(x):
		return y
	case s.IsTrue(y):
		return x
	case x == y:
		return x
	case x == y.Not():
		return s.False()
	}
	if x > y {
		x, y = y, x
	}
	k := gateKey{gateAnd, x, y}
	if g, ok := s.gates[k]; ok {
		return g
	}
	g := sat.MkLit(s.S.NewVar(), false)
	s.S.AddClause(g.Not(), x)
	s.S.AddClause(g.Not(), y)
	s.S.AddClause(g, x.Not(), y.Not())
	s.gates[k] = g
	return g
}

// Or returns a literal equivalent to x OR y.
func (s *SAT) Or(x, y sat.Lit) sat.Lit {
	return s.And(x.Not(), y.Not()).Not()
}

// Xor returns a literal equivalent to x XOR y, adding Tseitin clauses.
func (s *SAT) Xor(x, y sat.Lit) sat.Lit {
	switch {
	case s.IsFalse(x):
		return y
	case s.IsFalse(y):
		return x
	case s.IsTrue(x):
		return y.Not()
	case s.IsTrue(y):
		return x.Not()
	case x == y:
		return s.False()
	case x == y.Not():
		return s.True()
	}
	// Normalize to positive-polarity key: xor(a,b) = xor(!a,!b).
	neg := false
	if x.Neg() {
		x, neg = x.Not(), !neg
	}
	if y.Neg() {
		y, neg = y.Not(), !neg
	}
	if x > y {
		x, y = y, x
	}
	k := gateKey{gateXor, x, y}
	g, ok := s.gates[k]
	if !ok {
		g = sat.MkLit(s.S.NewVar(), false)
		s.S.AddClause(g.Not(), x, y)
		s.S.AddClause(g.Not(), x.Not(), y.Not())
		s.S.AddClause(g, x.Not(), y)
		s.S.AddClause(g, x, y.Not())
		s.gates[k] = g
	}
	if neg {
		return g.Not()
	}
	return g
}

// Ite returns a literal equivalent to if-c-then-t-else-f.
func (s *SAT) Ite(c, t, f sat.Lit) sat.Lit {
	if s.IsTrue(c) {
		return t
	}
	if s.IsFalse(c) {
		return f
	}
	if t == f {
		return t
	}
	return s.Or(s.And(c, t), s.And(c.Not(), f))
}

// Solve checks satisfiability of the constraint together with all Tseitin
// clauses added so far. An interrupted search panics with cancel.Abort
// rather than returning false: "no witness yet" must never masquerade as
// "no witness exists" (a Verify would report vacuous validity).
func (s *SAT) Solve(constraint sat.Lit) bool {
	st := s.S.Solve(constraint)
	if st == sat.Unknown {
		if err := s.S.InterruptErr(); err != nil {
			panic(cancel.Abort{Err: err})
		}
	}
	return st == sat.Sat
}

// SetInterrupt arms a cancellation check on the underlying CDCL solver,
// implementing Interruptible.
func (s *SAT) SetInterrupt(chk cancel.Check) {
	if chk == nil {
		s.S.Interrupt = nil
		return
	}
	s.S.Interrupt = chk
}

// BitValue reports the model value of a literal after a successful Solve.
func (s *SAT) BitValue(x sat.Lit) bool {
	v := s.S.Model(x.Var())
	if x.Neg() {
		return !v
	}
	return v
}

// ReportInto harvests the CDCL solver's counters into a telemetry
// snapshot, implementing obs.Reporter.
func (s *SAT) ReportInto(snap *obs.Snapshot) {
	st := s.S.Stats()
	snap.SAT.Vars += int64(st.Vars)
	snap.SAT.Clauses += int64(st.Clauses)
	snap.SAT.Learned += int64(st.Learned)
	snap.SAT.Decisions += st.Decisions
	snap.SAT.Propagations += st.Propagations
	snap.SAT.Conflicts += st.Conflicts
	snap.SAT.Restarts += st.Restarts
}

var (
	_ sym.Solver[sat.Lit] = (*SAT)(nil)
	_ obs.Reporter        = (*SAT)(nil)
	_ Interruptible       = (*SAT)(nil)
)
