// Package bdd implements reduced ordered binary decision diagrams (ROBDDs).
//
// The package provides the shared-node BDD kernel used by Zen's BDD solver
// backend and by the state-set transformer machinery: ITE with memoization,
// existential and universal quantification, the fused relational product
// (AndExists), order-preserving variable renaming, model counting and model
// extraction.
//
// A Manager owns all nodes. Refs are stable for the lifetime of the manager;
// the node store is grow-only (no garbage collection), which matches Zen's
// usage pattern of building a formula, querying it, and dropping the whole
// manager. A Manager is not safe for concurrent use.
package bdd

import (
	"fmt"
	"math/big"

	"zen-go/internal/cancel"
)

// Ref identifies a BDD node within its Manager. The zero value is the
// constant false node; True is the constant true node.
type Ref int32

// Terminal nodes. False is deliberately the zero value of Ref so that
// zero-initialized sets are empty.
const (
	False Ref = 0
	True  Ref = 1
)

// terminalLevel sorts after every real variable level.
const terminalLevel int32 = 1 << 30

type nodeKey struct {
	level     int32
	low, high Ref
}

type opKey struct {
	op      uint8
	a, b, c Ref
}

// Operation tags for the memoization cache.
const (
	opIte uint8 = iota
	opExists
	opAndExists
	opReplace
	opSatCount
	opSupport
	opConstrain
)

// Stats reports internal counters, used by benchmarks, ablations and the
// telemetry layer (internal/obs).
type Stats struct {
	Nodes      int // allocated nonterminal nodes
	CacheHits  int64
	CacheMiss  int64
	UniqueHits int64 // unique-table lookups that found an existing node
}

// Manager owns a collection of shared BDD nodes over a growable set of
// variables. Variables are identified by their level: smaller levels are
// tested first.
type Manager struct {
	level  []int32
	low    []Ref
	high   []Ref
	unique map[nodeKey]Ref
	cache  map[opKey]Ref

	// cube and replacement context for quantification/rename caches; an
	// epoch counter disambiguates cache entries across calls.
	ctxEpoch Ref

	numVars int
	stats   Stats

	countCache map[Ref]*big.Int
	countVars  int

	// interrupt, when armed, is polled every pollInterval cache misses in
	// the recursive apply loops; it unwinds via cancel.Abort.
	interrupt cancel.Check
	pollGas   int
}

// pollInterval is the number of cache misses between interrupt polls. A
// miss is the unit of real work in the apply loops (hits return
// immediately), so gating on misses bounds cancellation latency by a
// constant amount of node construction.
const pollInterval = 1 << 10

// SetInterrupt arms (or, with nil, disarms) a cancellation check polled
// periodically inside Ite, quantification, and rename recursions. When
// the check reports an error the operation panics with cancel.Abort; the
// caller that armed the interrupt must recover it (see cancel.Trap). The
// manager's tables remain valid after an abort — the computation is
// merely incomplete — so a long-lived manager survives cancelled queries.
func (m *Manager) SetInterrupt(chk cancel.Check) {
	m.interrupt = chk
	m.pollGas = pollInterval
}

// poll burns one unit of gas and checks the interrupt when it runs out.
func (m *Manager) poll() {
	if m.interrupt == nil {
		return
	}
	if m.pollGas--; m.pollGas <= 0 {
		m.pollGas = pollInterval
		m.interrupt.Point()
	}
}

// New returns a Manager with capacity hints for the given number of
// variables. Variables beyond numVars may still be created later; numVars
// only pre-sizes internal tables.
func New(numVars int) *Manager {
	m := &Manager{
		level:  make([]int32, 2, 1024),
		low:    make([]Ref, 2, 1024),
		high:   make([]Ref, 2, 1024),
		unique: make(map[nodeKey]Ref, 1024),
		cache:  make(map[opKey]Ref, 1024),
	}
	m.level[False] = terminalLevel
	m.level[True] = terminalLevel
	m.numVars = numVars
	return m
}

// NumVars returns the number of variables known to the manager.
func (m *Manager) NumVars() int { return m.numVars }

// Stats returns a snapshot of internal counters.
func (m *Manager) Stats() Stats {
	s := m.stats
	s.Nodes = len(m.level) - 2
	return s
}

// mk returns the node (level, low, high), reduced and hash-consed.
func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	k := nodeKey{level, low, high}
	if r, ok := m.unique[k]; ok {
		m.stats.UniqueHits++
		return r
	}
	r := Ref(len(m.level))
	m.level = append(m.level, level)
	m.low = append(m.low, low)
	m.high = append(m.high, high)
	m.unique[k] = r
	return r
}

// Var returns the BDD for variable v (a single positive literal), creating
// the variable if v is beyond the current variable count.
func (m *Manager) Var(v int) Ref {
	if v < 0 {
		panic("bdd: negative variable")
	}
	if v >= m.numVars {
		m.numVars = v + 1
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD for the negation of variable v.
func (m *Manager) NVar(v int) Ref {
	if v < 0 {
		panic("bdd: negative variable")
	}
	if v >= m.numVars {
		m.numVars = v + 1
	}
	return m.mk(int32(v), True, False)
}

// Level returns the variable level tested by node r, or a value larger than
// any variable if r is terminal.
func (m *Manager) Level(r Ref) int {
	return int(m.level[r])
}

// IsTerminal reports whether r is one of the constants.
func (m *Manager) IsTerminal(r Ref) bool { return r == False || r == True }

// Low and High return the cofactors of a nonterminal node.
func (m *Manager) Low(r Ref) Ref  { return m.low[r] }
func (m *Manager) High(r Ref) Ref { return m.high[r] }

// Not returns the complement of r.
func (m *Manager) Not(r Ref) Ref { return m.Ite(r, False, True) }

// And returns the conjunction of a and b.
func (m *Manager) And(a, b Ref) Ref { return m.Ite(a, b, False) }

// Or returns the disjunction of a and b.
func (m *Manager) Or(a, b Ref) Ref { return m.Ite(a, True, b) }

// Xor returns the exclusive or of a and b.
func (m *Manager) Xor(a, b Ref) Ref { return m.Ite(a, m.Not(b), b) }

// Iff returns the biconditional of a and b.
func (m *Manager) Iff(a, b Ref) Ref { return m.Ite(a, b, m.Not(b)) }

// Implies returns the implication a -> b.
func (m *Manager) Implies(a, b Ref) Ref { return m.Ite(a, b, True) }

// Leq reports whether a implies b (a ≤ b). It decides Implies(a, b) ==
// True by walking the two diagrams in step: it makes no node and no
// op-cache entry, so a long-lived manager answering many containment
// questions does not grow. The memo is per call; it holds only pairs
// already shown to imply, since the first failing pair ends the walk.
func (m *Manager) Leq(a, b Ref) bool {
	return m.walkPairs(a, b, make(map[[2]Ref]struct{}), func(a, b Ref) (bool, bool) {
		switch {
		case a == False || b == True || a == b:
			return true, true
		case a == True || b == False:
			// Reduced diagrams: a nonterminal is neither constant.
			return false, true
		}
		return false, false
	})
}

// Disjoint reports whether a and b have no common satisfying assignment,
// And(a, b) == False, with Leq's guarantees: no node, no cache entry.
func (m *Manager) Disjoint(a, b Ref) bool {
	return m.walkPairs(a, b, make(map[[2]Ref]struct{}), func(a, b Ref) (bool, bool) {
		switch {
		case a == False || b == False:
			return true, true
		case a == True || b == True || a == b:
			return false, true
		}
		return false, false
	})
}

// walkPairs decides a relation that holds of (a, b) exactly when it holds
// of both cofactor pairs at their top level. leaf answers the pairs it
// can decide directly (decided true); seen holds the pairs already shown
// to hold.
func (m *Manager) walkPairs(a, b Ref, seen map[[2]Ref]struct{}, leaf func(a, b Ref) (holds, decided bool)) bool {
	if holds, decided := leaf(a, b); decided {
		return holds
	}
	k := [2]Ref{a, b}
	if _, ok := seen[k]; ok {
		return true
	}
	top := min(m.level[a], m.level[b])
	a0, a1 := m.cofactor(a, top)
	b0, b1 := m.cofactor(b, top)
	if !m.walkPairs(a0, b0, seen, leaf) || !m.walkPairs(a1, b1, seen, leaf) {
		return false
	}
	seen[k] = struct{}{}
	return true
}

// Ite returns if-then-else(f, g, h).
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	k := opKey{opIte, f, g, h}
	if r, ok := m.cache[k]; ok {
		m.stats.CacheHits++
		return r
	}
	m.stats.CacheMiss++
	m.poll()
	top := m.level[f]
	if m.level[g] < top {
		top = m.level[g]
	}
	if m.level[h] < top {
		top = m.level[h]
	}
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	r := m.mk(top, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.cache[k] = r
	return r
}

func (m *Manager) cofactor(r Ref, level int32) (lo, hi Ref) {
	if m.level[r] == level {
		return m.low[r], m.high[r]
	}
	return r, r
}

// VarSet is a set of variable levels, represented as a sorted slice.
type VarSet []int

// cubeContains reports whether the set contains level v, assuming vs is
// sorted ascending.
func (vs VarSet) contains(v int32) bool {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int32(vs[mid]) == v:
			return true
		case int32(vs[mid]) < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// beginOp starts a new cached-operation context (a quantifier cube or a
// rename map); entries are keyed by an epoch so different contexts do not
// collide in the shared cache.
func (m *Manager) beginOp() Ref {
	m.ctxEpoch++
	return m.ctxEpoch
}

// Exists existentially quantifies the variables in vars (sorted ascending)
// out of r.
func (m *Manager) Exists(r Ref, vars VarSet) Ref {
	if len(vars) == 0 {
		return r
	}
	epoch := m.beginOp()
	return m.exists(r, vars, epoch)
}

func (m *Manager) exists(r Ref, vars VarSet, epoch Ref) Ref {
	if m.IsTerminal(r) {
		return r
	}
	if int32(vars[len(vars)-1]) < m.level[r] {
		return r // no quantified variable remains below this node
	}
	k := opKey{opExists, r, epoch, 0}
	if res, ok := m.cache[k]; ok {
		m.stats.CacheHits++
		return res
	}
	m.stats.CacheMiss++
	m.poll()
	lo := m.exists(m.low[r], vars, epoch)
	hi := m.exists(m.high[r], vars, epoch)
	var res Ref
	if vars.contains(m.level[r]) {
		res = m.Or(lo, hi)
	} else {
		res = m.mk(m.level[r], lo, hi)
	}
	m.cache[k] = res
	return res
}

// Forall universally quantifies the variables in vars out of r.
func (m *Manager) Forall(r Ref, vars VarSet) Ref {
	return m.Not(m.Exists(m.Not(r), vars))
}

// AndExists computes Exists(And(a, b), vars) without materializing the
// conjunction — the classic relational-product operation.
func (m *Manager) AndExists(a, b Ref, vars VarSet) Ref {
	if len(vars) == 0 {
		return m.And(a, b)
	}
	epoch := m.beginOp()
	return m.andExists(a, b, vars, epoch)
}

func (m *Manager) andExists(a, b Ref, vars VarSet, epoch Ref) Ref {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	if a == True {
		return m.exists(b, vars, epoch)
	}
	if b == True {
		return m.exists(a, vars, epoch)
	}
	if a == b {
		return m.exists(a, vars, epoch)
	}
	if a > b {
		a, b = b, a
	}
	k := opKey{opAndExists, a, b, epoch}
	if res, ok := m.cache[k]; ok {
		m.stats.CacheHits++
		return res
	}
	m.stats.CacheMiss++
	m.poll()
	top := m.level[a]
	if m.level[b] < top {
		top = m.level[b]
	}
	a0, a1 := m.cofactor(a, top)
	b0, b1 := m.cofactor(b, top)
	var res Ref
	if vars.contains(top) {
		lo := m.andExists(a0, b0, vars, epoch)
		if lo == True {
			res = True
		} else {
			res = m.Or(lo, m.andExists(a1, b1, vars, epoch))
		}
	} else {
		res = m.mk(top,
			m.andExists(a0, b0, vars, epoch),
			m.andExists(a1, b1, vars, epoch))
	}
	m.cache[k] = res
	return res
}

// Replace renames variables of r according to the map from old level to new
// level. The mapping must be order-preserving: if u < v and both are mapped,
// then map[u] < map[v], and a mapped variable must not cross an unmapped
// variable's relative order. Replace panics if the result would violate
// ordering locally.
func (m *Manager) Replace(r Ref, mapping map[int]int) Ref {
	if len(mapping) == 0 {
		return r
	}
	epoch := m.beginOp()
	mp := make([]int32, m.numVars)
	for i := range mp {
		mp[i] = int32(i)
	}
	for from, to := range mapping {
		if from >= len(mp) {
			continue // variable not present anywhere yet
		}
		if to >= m.numVars {
			m.numVars = to + 1
		}
		mp[from] = int32(to)
	}
	// Verify order preservation over the variables that actually occur in
	// r: their images (mapped or identity) must be strictly increasing.
	prev := int32(-1)
	prevVar := -1
	for _, v := range m.Support(r) {
		img := mp[v]
		if img <= prev {
			panic(fmt.Sprintf("bdd: Replace mapping is not order-preserving (%d -> %d after %d -> %d)",
				v, img, prevVar, prev))
		}
		prev, prevVar = img, v
	}
	return m.replace(r, mp, epoch)
}

func (m *Manager) replace(r Ref, mp []int32, epoch Ref) Ref {
	if m.IsTerminal(r) {
		return r
	}
	k := opKey{opReplace, r, epoch, 0}
	if res, ok := m.cache[k]; ok {
		m.stats.CacheHits++
		return res
	}
	m.stats.CacheMiss++
	m.poll()
	lo := m.replace(m.low[r], mp, epoch)
	hi := m.replace(m.high[r], mp, epoch)
	res := m.mk(mp[m.level[r]], lo, hi)
	m.cache[k] = res
	return res
}

// Substitute renames variables of r according to the mapping, with no
// ordering restriction: it performs a simultaneous substitution of each
// mapped variable by the variable it maps to (vector compose). More general
// but slower than Replace; use Replace for order-preserving renames.
func (m *Manager) Substitute(r Ref, mapping map[int]int) Ref {
	if len(mapping) == 0 {
		return r
	}
	epoch := m.beginOp()
	mp := make([]int32, m.numVars)
	for i := range mp {
		mp[i] = int32(i)
	}
	for from, to := range mapping {
		if from >= len(mp) {
			continue
		}
		if to >= m.numVars {
			m.numVars = to + 1
		}
		mp[from] = int32(to)
	}
	return m.substitute(r, mp, epoch)
}

func (m *Manager) substitute(r Ref, mp []int32, epoch Ref) Ref {
	if m.IsTerminal(r) {
		return r
	}
	k := opKey{opConstrain, r, epoch, 0}
	if res, ok := m.cache[k]; ok {
		m.stats.CacheHits++
		return res
	}
	m.stats.CacheMiss++
	m.poll()
	lo := m.substitute(m.low[r], mp, epoch)
	hi := m.substitute(m.high[r], mp, epoch)
	g := m.Var(int(mp[m.level[r]]))
	res := m.Ite(g, hi, lo)
	m.cache[k] = res
	return res
}

// Restrict fixes variable v to the given value within r.
func (m *Manager) Restrict(r Ref, v int, value bool) Ref {
	if value {
		return m.AndExists(r, m.Var(v), VarSet{v})
	}
	return m.AndExists(r, m.NVar(v), VarSet{v})
}

// Support returns the sorted set of variable levels appearing in r.
func (m *Manager) Support(r Ref) VarSet {
	seen := make(map[Ref]bool)
	vars := make(map[int]bool)
	var walk func(Ref)
	walk = func(n Ref) {
		if m.IsTerminal(n) || seen[n] {
			return
		}
		seen[n] = true
		vars[int(m.level[n])] = true
		walk(m.low[n])
		walk(m.high[n])
	}
	walk(r)
	out := make(VarSet, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	// Insertion sort: support sets are small and this avoids importing sort
	// for a hot path that is not hot.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SatCount returns the number of satisfying assignments of r over nVars
// variables (levels 0..nVars-1). All variables of r must be below nVars.
func (m *Manager) SatCount(r Ref, nVars int) *big.Int {
	if m.countCache == nil || m.countVars != nVars {
		m.countCache = make(map[Ref]*big.Int)
		m.countVars = nVars
	}
	return m.scaled(r, 0, nVars)
}

// satCount returns the number of satisfying assignments of a nonterminal r
// over the variables at levels [level(r), nVars).
func (m *Manager) satCount(r Ref, nVars int) *big.Int {
	if c, ok := m.countCache[r]; ok {
		return c
	}
	lo := m.scaled(m.low[r], m.level[r]+1, nVars)
	hi := m.scaled(m.high[r], m.level[r]+1, nVars)
	sum := new(big.Int).Add(lo, hi)
	m.countCache[r] = sum
	return sum
}

// scaled returns the number of satisfying assignments of child over the
// variables at levels [fromLevel, nVars).
func (m *Manager) scaled(child Ref, fromLevel int32, nVars int) *big.Int {
	if child == False {
		return big.NewInt(0)
	}
	if child == True {
		n := int32(nVars) - fromLevel
		if n < 0 {
			n = 0
		}
		return new(big.Int).Lsh(big.NewInt(1), uint(n))
	}
	c := m.satCount(child, nVars)
	skip := m.level[child] - fromLevel
	if skip < 0 {
		skip = 0
	}
	return new(big.Int).Lsh(c, uint(skip))
}

// AnySat returns one satisfying assignment of r, or ok=false if r is
// unsatisfiable. The returned slice has one entry per variable level
// 0..nVars-1 with values 0, 1, or -1 (don't care).
func (m *Manager) AnySat(r Ref, nVars int) (assign []int8, ok bool) {
	if r == False {
		return nil, false
	}
	assign = make([]int8, nVars)
	for i := range assign {
		assign[i] = -1
	}
	for !m.IsTerminal(r) {
		lv := m.level[r]
		if m.low[r] != False {
			assign[lv] = 0
			r = m.low[r]
		} else {
			assign[lv] = 1
			r = m.high[r]
		}
	}
	return assign, true
}

// AllSat invokes fn for every satisfying cube of r. Each cube has one entry
// per level 0..nVars-1 with values 0, 1 or -1 (don't care). Iteration stops
// early if fn returns false. The cube slice is reused across calls.
func (m *Manager) AllSat(r Ref, nVars int, fn func(cube []int8) bool) {
	cube := make([]int8, nVars)
	for i := range cube {
		cube[i] = -1
	}
	var rec func(Ref) bool
	rec = func(n Ref) bool {
		if n == False {
			return true
		}
		if n == True {
			return fn(cube)
		}
		lv := m.level[n]
		cube[lv] = 0
		if !rec(m.low[n]) {
			return false
		}
		cube[lv] = 1
		if !rec(m.high[n]) {
			return false
		}
		cube[lv] = -1
		return true
	}
	rec(r)
}

// Eval evaluates r under a complete assignment (indexed by level).
func (m *Manager) Eval(r Ref, assign []bool) bool {
	for !m.IsTerminal(r) {
		if assign[m.level[r]] {
			r = m.high[r]
		} else {
			r = m.low[r]
		}
	}
	return r == True
}

// Cube returns the conjunction of the given literals: positive levels are
// asserted true; for negated variables pass value false.
func (m *Manager) Cube(lits map[int]bool) Ref {
	// Build bottom-up in descending level order for linear work.
	levels := make([]int, 0, len(lits))
	for v := range lits {
		levels = append(levels, v)
	}
	sortInts(levels)
	r := True
	for i := len(levels) - 1; i >= 0; i-- {
		v := levels[i]
		if lits[v] {
			r = m.mk(int32(v), False, r)
		} else {
			r = m.mk(int32(v), r, False)
		}
	}
	return r
}
