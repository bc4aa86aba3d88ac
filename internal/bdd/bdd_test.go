package bdd

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New(4)
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("Not on terminals broken")
	}
	if m.And(True, False) != False || m.And(True, True) != True {
		t.Fatal("And on terminals broken")
	}
	if m.Or(False, False) != False || m.Or(True, False) != True {
		t.Fatal("Or on terminals broken")
	}
	if !m.IsTerminal(True) || !m.IsTerminal(False) {
		t.Fatal("IsTerminal broken")
	}
}

func TestVarBasics(t *testing.T) {
	m := New(4)
	x, y := m.Var(0), m.Var(1)
	if x == y {
		t.Fatal("distinct variables hashed to the same node")
	}
	if m.Var(0) != x {
		t.Fatal("Var is not canonical")
	}
	if m.And(x, m.Not(x)) != False {
		t.Fatal("x AND NOT x != false")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Fatal("x OR NOT x != true")
	}
	if m.NVar(0) != m.Not(x) {
		t.Fatal("NVar(0) != Not(Var(0))")
	}
	if m.Xor(x, x) != False || m.Iff(x, x) != True {
		t.Fatal("Xor/Iff on identical args broken")
	}
	if m.Implies(x, x) != True {
		t.Fatal("x -> x != true")
	}
}

func TestVarGrowth(t *testing.T) {
	m := New(0)
	m.Var(9)
	if m.NumVars() != 10 {
		t.Fatalf("NumVars = %d, want 10", m.NumVars())
	}
}

// buildRandom returns a random BDD over nVars variables along with a
// reference truth-table evaluator function.
func buildRandom(m *Manager, rng *rand.Rand, nVars, depth int) (Ref, func([]bool) bool) {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return True, func([]bool) bool { return true }
		case 1:
			return False, func([]bool) bool { return false }
		default:
			v := rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				return m.Var(v), func(a []bool) bool { return a[v] }
			}
			return m.NVar(v), func(a []bool) bool { return !a[v] }
		}
	}
	a, fa := buildRandom(m, rng, nVars, depth-1)
	b, fb := buildRandom(m, rng, nVars, depth-1)
	switch rng.Intn(4) {
	case 0:
		return m.And(a, b), func(x []bool) bool { return fa(x) && fb(x) }
	case 1:
		return m.Or(a, b), func(x []bool) bool { return fa(x) || fb(x) }
	case 2:
		return m.Xor(a, b), func(x []bool) bool { return fa(x) != fb(x) }
	default:
		c, fc := buildRandom(m, rng, nVars, depth-1)
		return m.Ite(a, b, c), func(x []bool) bool {
			if fa(x) {
				return fb(x)
			}
			return fc(x)
		}
	}
}

func allAssignments(nVars int, fn func([]bool)) {
	a := make([]bool, nVars)
	var rec func(int)
	rec = func(i int) {
		if i == nVars {
			fn(a)
			return
		}
		a[i] = false
		rec(i + 1)
		a[i] = true
		rec(i + 1)
	}
	rec(0)
}

func TestRandomAgainstTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nVars = 6
	for trial := 0; trial < 200; trial++ {
		m := New(nVars)
		r, ref := buildRandom(m, rng, nVars, 5)
		allAssignments(nVars, func(a []bool) {
			if m.Eval(r, a) != ref(a) {
				t.Fatalf("trial %d: Eval disagrees with reference at %v", trial, a)
			}
		})
	}
}

func TestSatCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const nVars = 7
	for trial := 0; trial < 100; trial++ {
		m := New(nVars)
		r, ref := buildRandom(m, rng, nVars, 5)
		want := 0
		allAssignments(nVars, func(a []bool) {
			if ref(a) {
				want++
			}
		})
		got := m.SatCount(r, nVars)
		if got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("trial %d: SatCount = %v, want %d", trial, got, want)
		}
	}
}

func TestSatCountTerminals(t *testing.T) {
	m := New(5)
	if m.SatCount(False, 5).Sign() != 0 {
		t.Fatal("SatCount(false) != 0")
	}
	if m.SatCount(True, 5).Cmp(big.NewInt(32)) != 0 {
		t.Fatal("SatCount(true) != 2^5")
	}
	if m.SatCount(m.Var(3), 5).Cmp(big.NewInt(16)) != 0 {
		t.Fatal("SatCount(x3) != 2^4")
	}
}

func TestAnySat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nVars = 6
	for trial := 0; trial < 100; trial++ {
		m := New(nVars)
		r, ref := buildRandom(m, rng, nVars, 5)
		assign, ok := m.AnySat(r, nVars)
		if !ok {
			if r != False {
				t.Fatalf("trial %d: AnySat failed on satisfiable BDD", trial)
			}
			continue
		}
		// Complete don't-cares arbitrarily and check.
		full := make([]bool, nVars)
		for i, v := range assign {
			full[i] = v == 1
		}
		if !ref(full) {
			t.Fatalf("trial %d: AnySat returned non-model %v", trial, assign)
		}
	}
}

func TestAllSatCoversExactly(t *testing.T) {
	m := New(4)
	x, y := m.Var(0), m.Var(2)
	f := m.Or(m.And(x, y), m.And(m.Not(x), m.Not(y)))
	count := 0
	m.AllSat(f, 4, func(cube []int8) bool {
		count++
		// Verify every completion of the cube satisfies f.
		free := []int{}
		base := make([]bool, 4)
		for i, v := range cube {
			switch v {
			case -1:
				free = append(free, i)
			case 1:
				base[i] = true
			}
		}
		for mask := 0; mask < 1<<len(free); mask++ {
			a := append([]bool(nil), base...)
			for bi, idx := range free {
				a[idx] = mask&(1<<bi) != 0
			}
			if !m.Eval(f, a) {
				t.Fatalf("AllSat produced non-model cube %v", cube)
			}
		}
		return true
	})
	if count != 2 {
		t.Fatalf("AllSat yielded %d cubes, want 2", count)
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := New(3)
	f := m.Or(m.Var(0), m.Var(1))
	n := 0
	m.AllSat(f, 3, func([]int8) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("AllSat did not stop early: %d calls", n)
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	x, y, z := m.Var(0), m.Var(1), m.Var(2)
	f := m.And(x, m.Or(y, z))
	// Exists y. f = x AND (true OR z) simplified = x
	if got := m.Exists(f, VarSet{1}); got != m.And(x, m.Or(True, z)) {
		// Exists y.(x ∧ (y∨z)) = x ∧ (∃y. y∨z) = x
		if got != x {
			t.Fatalf("Exists over y wrong")
		}
	}
	// Exists x. f = y OR z
	if got := m.Exists(f, VarSet{0}); got != m.Or(y, z) {
		t.Fatalf("Exists over x wrong")
	}
	// Exists everything = true (f is satisfiable)
	if got := m.Exists(f, VarSet{0, 1, 2}); got != True {
		t.Fatalf("Exists over all vars of satisfiable f != true")
	}
}

func TestForall(t *testing.T) {
	m := New(2)
	x, y := m.Var(0), m.Var(1)
	f := m.Or(x, y)
	if m.Forall(f, VarSet{0}) != y {
		t.Fatal("Forall x.(x|y) != y")
	}
	if m.Forall(m.Or(x, m.Not(x)), VarSet{0}) != True {
		t.Fatal("Forall x.(x|!x) != true")
	}
}

func TestAndExistsMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const nVars = 6
	for trial := 0; trial < 100; trial++ {
		m := New(nVars)
		a, _ := buildRandom(m, rng, nVars, 4)
		b, _ := buildRandom(m, rng, nVars, 4)
		vars := VarSet{}
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		want := m.Exists(m.And(a, b), vars)
		got := m.AndExists(a, b, vars)
		if got != want {
			t.Fatalf("trial %d: AndExists != Exists∘And", trial)
		}
	}
}

func TestReplaceShiftsVariables(t *testing.T) {
	m := New(8)
	x0, x1 := m.Var(0), m.Var(2)
	f := m.And(x0, m.Not(x1))
	g := m.Replace(f, map[int]int{0: 4, 2: 6})
	want := m.And(m.Var(4), m.Not(m.Var(6)))
	if g != want {
		t.Fatal("Replace did not shift variables")
	}
	// Round trip.
	back := m.Replace(g, map[int]int{4: 0, 6: 2})
	if back != f {
		t.Fatal("Replace round trip failed")
	}
}

func TestReplacePanicsOnNonMonotonic(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order-violating rename")
		}
	}()
	m.Replace(f, map[int]int{0: 3, 1: 2})
}

func TestRestrict(t *testing.T) {
	m := New(2)
	x, y := m.Var(0), m.Var(1)
	f := m.Xor(x, y)
	if m.Restrict(f, 0, true) != m.Not(y) {
		t.Fatal("Restrict x=1 wrong")
	}
	if m.Restrict(f, 0, false) != y {
		t.Fatal("Restrict x=0 wrong")
	}
}

func TestSupport(t *testing.T) {
	m := New(8)
	f := m.And(m.Var(1), m.Or(m.Var(5), m.Not(m.Var(3))))
	s := m.Support(f)
	want := VarSet{1, 3, 5}
	if len(s) != len(want) {
		t.Fatalf("Support = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("Support = %v, want %v", s, want)
		}
	}
}

func TestCube(t *testing.T) {
	m := New(4)
	c := m.Cube(map[int]bool{0: true, 2: false, 3: true})
	want := m.And(m.Var(0), m.And(m.Not(m.Var(2)), m.Var(3)))
	if c != want {
		t.Fatal("Cube built wrong BDD")
	}
	if m.Cube(nil) != True {
		t.Fatal("empty cube != true")
	}
}

// Property: hash consing makes structurally equal functions pointer equal,
// so boolean algebra laws hold as Ref equality.
func TestAlgebraLawsQuick(t *testing.T) {
	m := New(8)
	mkref := func(bits uint16) Ref {
		// Interpret bits as a function of 4 vars via Shannon expansion on
		// a fixed order: build from truth table.
		var rec func(level int, lo, hi int) Ref
		rec = func(level, lo, hi int) Ref {
			if level == 4 {
				if bits&(1<<lo) != 0 {
					return True
				}
				return False
			}
			mid := (lo + hi) / 2
			return m.Ite(m.Var(level), rec(level+1, mid, hi), rec(level+1, lo, mid))
		}
		_ = rec
		// Simpler: evaluate over all 16 assignments.
		f := False
		for a := 0; a < 16; a++ {
			if bits&(1<<a) == 0 {
				continue
			}
			cube := True
			for v := 0; v < 4; v++ {
				if a&(1<<v) != 0 {
					cube = m.And(cube, m.Var(v))
				} else {
					cube = m.And(cube, m.Not(m.Var(v)))
				}
			}
			f = m.Or(f, cube)
		}
		return f
	}
	err := quick.Check(func(xb, yb, zb uint16) bool {
		x, y, z := mkref(xb), mkref(yb), mkref(zb)
		if m.And(x, y) != m.And(y, x) {
			return false
		}
		if m.Or(x, m.And(y, z)) != m.And(m.Or(x, y), m.Or(x, z)) {
			return false
		}
		if m.Not(m.And(x, y)) != m.Or(m.Not(x), m.Not(y)) {
			return false
		}
		if m.Xor(x, y) != m.Xor(y, x) {
			return false
		}
		if m.Ite(x, y, z) != m.Or(m.And(x, y), m.And(m.Not(x), z)) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounts(t *testing.T) {
	m := New(4)
	m.And(m.Var(0), m.Var(1))
	s := m.Stats()
	if s.Nodes == 0 {
		t.Fatal("expected some allocated nodes")
	}
}

func BenchmarkIteChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New(64)
		f := True
		for v := 0; v < 64; v++ {
			f = m.And(f, m.Or(m.Var(v), m.NVar((v+7)%64)))
		}
	}
}

func TestSubstitutePermutation(t *testing.T) {
	m := New(4)
	// f = x0 AND NOT x1; swap x0 <-> x1 (non-monotonic rename).
	f := m.And(m.Var(0), m.Not(m.Var(1)))
	g := m.Substitute(f, map[int]int{0: 1, 1: 0})
	want := m.And(m.Var(1), m.Not(m.Var(0)))
	if g != want {
		t.Fatal("Substitute swap failed")
	}
	// Substitute agrees with Replace on order-preserving maps.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		mm := New(8)
		r, _ := buildRandom(mm, rng, 4, 4)
		mapping := map[int]int{0: 4, 1: 5, 2: 6, 3: 7}
		if mm.Substitute(r, mapping) != mm.Replace(r, mapping) {
			t.Fatal("Substitute disagrees with Replace on monotone map")
		}
	}
}

// TestLeqDisjointMatchIte: Leq and Disjoint agree with the node-building
// Implies(a, b) == True and And(a, b) == False on every pair of a pool
// of random BDDs (over 20k pairs, two of them constants), and build
// nothing themselves.
func TestLeqDisjointMatchIte(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const nVars, poolSize = 7, 160
	m := New(nVars)
	pool := append(make([]Ref, 0, poolSize), False, True)
	for len(pool) < poolSize {
		r, _ := buildRandom(m, rng, nVars, 6)
		// Conjoin or disjoin with an earlier entry now and then, so
		// implied and disjoint pairs are common, not just the constants.
		if len(pool) > 0 && rng.Intn(3) == 0 {
			o := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				r = m.And(r, o)
			} else {
				r = m.And(r, m.Not(o))
			}
		}
		if !m.IsTerminal(r) {
			pool = append(pool, r)
		}
	}
	var leq, disjoint, pairs int
	for _, a := range pool {
		for _, b := range pool {
			before := m.Stats()
			gotLeq, gotDisjoint := m.Leq(a, b), m.Disjoint(a, b)
			if after := m.Stats(); after != before {
				t.Fatalf("Leq/Disjoint changed the manager: %+v -> %+v", before, after)
			}
			if want := m.Implies(a, b) == True; gotLeq != want {
				t.Fatalf("Leq(%d, %d) = %v, Implies says %v", a, b, gotLeq, want)
			}
			if want := m.And(a, b) == False; gotDisjoint != want {
				t.Fatalf("Disjoint(%d, %d) = %v, And says %v", a, b, gotDisjoint, want)
			}
			pairs++
			if gotLeq {
				leq++
			}
			if gotDisjoint {
				disjoint++
			}
		}
	}
	if pairs < 20000 || leq < pairs/50 || disjoint < pairs/50 {
		t.Fatalf("weak pool: %d pairs, %d implied, %d disjoint", pairs, leq, disjoint)
	}
	t.Logf("%d pairs, %d implied, %d disjoint", pairs, leq, disjoint)
}
