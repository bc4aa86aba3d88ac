// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, first-UIP conflict analysis with
// recursive clause minimization, EVSIDS branching, phase saving, and Luby
// restarts.
//
// The solver is the back end of Zen's "SMT" pipeline: Zen expressions are
// encoded into the theory of bitvectors and bit-blasted (package bitblast)
// down to CNF, mirroring the paper's use of Z3's QF_BV-to-SAT path.
package sat

// Lit is a literal: variable v has positive literal 2v and negative literal
// 2v+1. The zero value (literal 0) is "variable 0, positive".
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func fromBool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

type clauseRef int32

const nilClause clauseRef = -1

type clause struct {
	lits    []Lit
	learned bool
	deleted bool
	act     float64
}

type watcher struct {
	cref    clauseRef
	blocker Lit
}

// Status is the result of solving.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New. A Solver is not safe for concurrent use.
type Solver struct {
	clauses []clause
	watches [][]watcher // indexed by literal

	assign  []lbool // per variable
	level   []int32 // per variable
	reason  []clauseRef
	trail   []Lit
	trailLk []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	polarity []bool // saved phase
	order    *varHeap

	seen      []bool
	conflicts int64
	numVars   int

	// search counters for the telemetry layer (internal/obs)
	decisions    int64
	propagations int64
	restarts     int64
	added        int64 // problem (non-learned) clauses retained, incl. units

	// unsat becomes true if a top-level contradiction was added.
	unsat bool

	// learned-clause database management
	numLearned int
	reduceAt   int

	// MaxConflicts optionally bounds the search; 0 means unbounded.
	MaxConflicts int64

	// Interrupt, when non-nil, is polled periodically during search (at
	// every conflict and every few thousand propagation rounds). When it
	// returns an error, Solve stops with Unknown and InterruptErr reports
	// the cause. The solver remains usable: clauses learned before the
	// interrupt are kept and a later Solve resumes from them.
	Interrupt func() error

	interruptErr error

	// VarDecay is the EVSIDS activity decay factor in (0,1); 0 selects the
	// default 0.95. Portfolio workers diversify by running slightly
	// different decays, which changes branching order without affecting
	// soundness.
	VarDecay float64

	// RandFreq is the probability that a branching decision picks a
	// uniformly random unassigned variable instead of the activity-heap
	// maximum; 0 disables random decisions. Seed drives the PRNG and is
	// mutated as its state; two workers with distinct seeds explore
	// distinct search trees.
	RandFreq float64
	Seed     uint64
}

// interruptGas is the number of quiet search-loop iterations (no
// conflict) between Interrupt polls.
const interruptGas = 1 << 12

// InterruptErr returns the cause of the last Unknown result due to an
// Interrupt, or nil if the last Solve was not interrupted. It is reset at
// every Solve call, so Unknown results can be told apart: MaxConflicts
// exhaustion leaves it nil.
func (s *Solver) InterruptErr() error { return s.interruptErr }

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, reduceAt: 4000}
	s.order = &varHeap{solver: s}
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := s.numVars
	s.numVars++
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilClause)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false (negated)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumConflicts returns the number of conflicts encountered so far.
func (s *Solver) NumConflicts() int64 { return s.conflicts }

// Stats reports cumulative search counters for telemetry: problem size
// (variables, retained problem clauses, live learned clauses) and search
// effort (decisions, propagated assignments, conflicts, restarts).
type Stats struct {
	Vars         int
	Clauses      int
	Learned      int
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
}

// Stats returns a snapshot of the solver's counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Vars:         s.numVars,
		Clauses:      int(s.added),
		Learned:      s.numLearned,
		Decisions:    s.decisions,
		Propagations: s.propagations,
		Conflicts:    s.conflicts,
		Restarts:     s.restarts,
	}
}

func (s *Solver) value(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause to the solver. It returns false if the formula is
// already unsatisfiable at the top level. Clauses may only be added at
// decision level 0 (i.e., before or between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Clauses are asserted at the root: undo any in-progress search so the
	// top-level simplifications below only see level-0 facts.
	s.cancelUntil(0)
	// Normalize: remove duplicates and false literals; detect tautology.
	norm := make([]Lit, 0, len(lits))
	seen := map[Lit]bool{}
	for _, l := range lits {
		if l.Var() >= s.numVars {
			panic("sat: literal references unallocated variable")
		}
		switch s.value(l) {
		case lTrue:
			return true // satisfied at top level
		case lFalse:
			continue
		}
		if seen[l.Not()] {
			return true // tautology
		}
		if !seen[l] {
			seen[l] = true
			norm = append(norm, l)
		}
	}
	switch len(norm) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(norm[0], nilClause) {
			s.unsat = true
			return false
		}
		if s.propagate() != nilClause {
			s.unsat = true
			return false
		}
		s.added++
		return true
	}
	s.attach(norm, false)
	s.added++
	return true
}

func (s *Solver) attach(lits []Lit, learned bool) clauseRef {
	cr := clauseRef(len(s.clauses))
	s.clauses = append(s.clauses, clause{lits: lits, learned: learned})
	s.watches[lits[0]] = append(s.watches[lits[0]], watcher{cr, lits[1]})
	s.watches[lits[1]] = append(s.watches[lits[1]], watcher{cr, lits[0]})
	return cr
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLk)) }

func (s *Solver) enqueue(l Lit, from clauseRef) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = fromBool(!l.Neg())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting clause or
// nilClause.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		np := p.Not()
		ws := s.watches[np]
		j := 0
	nextWatch:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := &s.clauses[w.cref]
			lits := c.lits
			// Ensure the false literal is at position 1.
			if lits[0] == np {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], watcher{w.cref, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[np] = ws[:j]
				s.qhead = len(s.trail)
				return w.cref
			}
			s.enqueue(first, w.cref)
		}
		s.watches[np] = ws[:j]
	}
	return nilClause
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int32) {
	learned := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		if c.learned {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find next literal on the trail at the current decision level.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		// p is at current level and has a reason (not the decision) since
		// counter > 0 ensures we stop at the first UIP.
	}
	learned[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. Keep the
	// unfiltered list aside so every seen flag can be cleared afterwards,
	// including flags of dropped literals.
	all := append([]Lit(nil), learned...)
	out := learned[:1]
	for _, l := range all[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learned = out

	// Compute backjump level: highest level among learned[1:].
	bt := int32(0)
	pos := 1
	for i := 1; i < len(learned); i++ {
		if lv := s.level[learned[i].Var()]; lv > bt {
			bt = lv
			pos = i
		}
	}
	if len(learned) > 1 {
		learned[1], learned[pos] = learned[pos], learned[1]
	}
	for _, l := range all {
		s.seen[l.Var()] = false
	}
	return learned, bt
}

// redundant reports whether literal l in a learned clause is implied by the
// other marked literals (local minimization: every literal of its reason is
// marked or at level 0).
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == nilClause {
		return false
	}
	for _, q := range s.clauses[r].lits {
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(cr clauseRef) {
	s.clauses[cr].act++
}

func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := int(s.trailLk[lvl])
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assign[v] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = nilClause
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLk = s.trailLk[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranch() Lit {
	if s.RandFreq > 0 && s.numVars > 0 {
		if float64(s.nextRand()>>11)/(1<<53) < s.RandFreq {
			v := int(s.nextRand() % uint64(s.numVars))
			if s.assign[v] == lUndef {
				// Leave v in the heap: pop skips assigned variables, so a
				// stale entry is harmless.
				return MkLit(v, s.polarity[v])
			}
		}
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return MkLit(v, s.polarity[v])
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumptions. When the
// result is Sat, Model reports the satisfying assignment.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.interruptErr = nil
	if s.unsat {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nilClause {
		s.unsat = true
		return Unsat
	}

	restart := int64(1)
	budget := 100 * luby(restart)
	conflictsAtStart := s.conflicts
	gas := interruptGas

	for {
		// Poll the interrupt at every conflict (below) and every
		// interruptGas quiet iterations, so both conflict-heavy and
		// propagation-heavy searches stay responsive to cancellation.
		if s.Interrupt != nil {
			if gas--; gas <= 0 {
				gas = interruptGas
				if err := s.Interrupt(); err != nil {
					s.interruptErr = err
					s.cancelUntil(0)
					return Unknown
				}
			}
		}
		confl := s.propagate()
		if confl != nilClause {
			s.conflicts++
			if s.Interrupt != nil {
				if err := s.Interrupt(); err != nil {
					s.interruptErr = err
					s.cancelUntil(0)
					return Unknown
				}
			}
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			learned, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learned) == 1 {
				s.enqueue(learned[0], nilClause)
			} else {
				cr := s.attach(learned, true)
				s.numLearned++
				s.enqueue(learned[0], cr)
			}
			decay := s.VarDecay
			if decay == 0 {
				decay = 0.95
			}
			s.varInc /= decay
			if s.numLearned > s.reduceAt {
				s.reduceDB()
				s.reduceAt += s.reduceAt / 2
			}
			if s.MaxConflicts > 0 && s.conflicts-conflictsAtStart > s.MaxConflicts {
				return Unknown
			}
			if s.conflicts-conflictsAtStart > budget {
				restart++
				s.restarts++
				budget += 100 * luby(restart)
				s.cancelUntil(s.baseLevel(len(assumptions)))
			}
			continue
		}
		// Place assumptions as pseudo-decisions.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// level-to-assumption indexing aligned.
				s.trailLk = append(s.trailLk, int32(len(s.trail)))
			case lFalse:
				return Unsat
			default:
				s.trailLk = append(s.trailLk, int32(len(s.trail)))
				s.enqueue(a, nilClause)
			}
			continue
		}
		next := s.pickBranch()
		if next == -1 {
			return Sat
		}
		s.decisions++
		s.trailLk = append(s.trailLk, int32(len(s.trail)))
		s.enqueue(next, nilClause)
	}
}

func (s *Solver) baseLevel(nAssumptions int) int32 {
	if int(s.decisionLevel()) < nAssumptions {
		return s.decisionLevel()
	}
	return int32(nAssumptions)
}

// Model returns the value of variable v in the last satisfying assignment.
// Unassigned variables (possible after Sat when a variable occurs in no
// clause) default to false.
func (s *Solver) Model(v int) bool {
	return s.assign[v] == lTrue
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	solver *Solver
	heap   []int
	pos    []int // variable -> heap index, -1 if absent
}

func (h *varHeap) less(a, b int) bool {
	return h.solver.activity[a] > h.solver.activity[b]
}

func (h *varHeap) push(v int) {
	for v >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] != -1 {
		h.up(h.pos[v])
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.pos[v] = i
}

// reduceDB deactivates the less useful half of the learned clauses
// (lowest activity, length > 2), detaching them from the watch lists.
// Binary learned clauses and clauses currently acting as reasons are kept.
func (s *Solver) reduceDB() {
	type cand struct {
		cr  clauseRef
		act float64
	}
	inUse := make(map[clauseRef]bool, len(s.trail))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nilClause {
			inUse[r] = true
		}
	}
	var cands []cand
	for cr := range s.clauses {
		c := &s.clauses[cr]
		if c.learned && !c.deleted && len(c.lits) > 2 && !inUse[clauseRef(cr)] {
			cands = append(cands, cand{clauseRef(cr), c.act})
		}
	}
	if len(cands) < 2 {
		return
	}
	// Partial selection: drop the lowest-activity half.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].act < cands[j-1].act; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	drop := cands[:len(cands)/2]
	dropSet := make(map[clauseRef]bool, len(drop))
	for _, c := range drop {
		s.clauses[c.cr].deleted = true
		dropSet[c.cr] = true
		s.numLearned--
	}
	// Detach deleted clauses from every watch list.
	for lit := range s.watches {
		ws := s.watches[lit]
		j := 0
		for _, w := range ws {
			if !dropSet[w.cref] {
				ws[j] = w
				j++
			}
		}
		s.watches[lit] = ws[:j]
	}
}
