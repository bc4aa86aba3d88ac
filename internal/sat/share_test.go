package sat

import (
	"math/rand"
	"testing"
)

// randomCNF builds a small random CNF and returns it with its brute-force
// satisfiability, for verdict-parity checks on diversified solvers.
func randomCNF(rng *rand.Rand) (nVars int, cnf [][]Lit, wantSat bool) {
	nVars = 3 + rng.Intn(10)
	nClauses := 1 + rng.Intn(5*nVars)
	cnf = make([][]Lit, nClauses)
	for i := range cnf {
		width := 1 + rng.Intn(3)
		cl := make([]Lit, width)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
		}
		cnf[i] = cl
	}
	wantSat, _ = bruteForce(nVars, cnf)
	return nVars, cnf, wantSat
}

func loadCNF(nVars int, cnf [][]Lit) (*Solver, bool) {
	s := New()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return s, false
		}
	}
	return s, true
}

func TestCloneMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nVars, cnf, wantSat := randomCNF(rng)
		s, ok := loadCNF(nVars, cnf)
		if !ok {
			continue
		}
		c := s.Clone()
		if got := c.Solve(); (got == Sat) != wantSat {
			t.Fatalf("trial %d: clone=%v brute=%v", trial, got, wantSat)
		}
		if got := s.Solve(); (got == Sat) != wantSat {
			t.Fatalf("trial %d: parent=%v brute=%v", trial, got, wantSat)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	c := s.Clone()
	// Make the clone unsatisfiable; the parent must be unaffected.
	c.AddClause(MkLit(a, true))
	c.AddClause(MkLit(b, true))
	if c.Solve() != Unsat {
		t.Fatal("clone with extra clauses should be unsat")
	}
	if s.Solve() != Sat {
		t.Fatal("parent should remain sat")
	}
}

func TestCloneAfterSolveKeepsLearned(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if s.Solve() != Unsat {
		t.Fatal("PHP(6,5) should be unsat")
	}
	c := s.Clone()
	if !c.unsat {
		t.Fatal("clone should inherit the top-level unsat flag")
	}
	if c.Solve() != Unsat {
		t.Fatal("clone of an unsat solver should stay unsat")
	}
}

func TestDiversifiedWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		nVars, cnf, wantSat := randomCNF(rng)
		base, ok := loadCNF(nVars, cnf)
		if !ok {
			continue
		}
		for w := 0; w < 4; w++ {
			c := base.Clone()
			c.Seed = uint64(w)*0x9e37 + 1
			c.RandFreq = 0.1 * float64(w)
			c.VarDecay = 0.90 + 0.02*float64(w)
			if w > 0 {
				c.ScramblePolarity(uint64(trial)<<8 | uint64(w))
			}
			got := c.Solve()
			if (got == Sat) != wantSat {
				t.Fatalf("trial %d worker %d: got %v, brute=%v", trial, w, got, wantSat)
			}
			if got == Sat {
				for _, cl := range cnf {
					sat := false
					for _, l := range cl {
						val := c.Model(l.Var())
						if l.Neg() {
							val = !val
						}
						if val {
							sat = true
							break
						}
					}
					if !sat {
						t.Fatalf("trial %d worker %d: model violates clause %v", trial, w, cl)
					}
				}
			}
		}
	}
}

// TestRestartUnderAssumptions checks the restart path under assumptions:
// a restart backtracks only down to the assumption levels, so a
// diversified clone keeps its verdict under assumptions and stays
// reusable without them.
func TestRestartUnderAssumptions(t *testing.T) {
	base := New()
	pigeonhole(base, 7, 6)
	sel := base.NewVar()

	s := base.Clone()
	s.Seed, s.RandFreq = 7, 0.05
	if s.Solve(MkLit(sel, false)) != Unsat {
		t.Fatal("PHP(7,6) under an irrelevant assumption should be unsat")
	}
	if s.Stats().Restarts == 0 {
		t.Fatal("PHP(7,6) should take at least one restart")
	}
	// The selector is pure decoration: without assuming it the formula is
	// still unsat, and the solver must remain reusable.
	if s.Solve() != Unsat {
		t.Fatal("solve without the assumption should be unsat")
	}
}

// TestLearnedClausesSpeedUpSecondSolve pins the incremental premise the
// portfolio's FindAll path relies on: a second Solve on the same solver
// reuses learned clauses, while a fresh solver re-derives them.
func TestLearnedClausesSpeedUpSecondSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if s.Solve() != Sat {
		t.Fatal("PHP(5,5) should be sat")
	}
	first := s.Stats().Conflicts
	if s.Solve() != Sat {
		t.Fatal("second solve should be sat")
	}
	if again := s.Stats().Conflicts - first; again > first {
		t.Fatalf("second solve cost %d conflicts, first cost %d; learned clauses not reused", again, first)
	}
}
