package sat

// This file holds the portfolio-facing surface of the solver: worker
// cloning and the diversification PRNG. A parallel SAT portfolio
// (internal/portfolio) clones one encoded solver per worker and perturbs
// each clone's search (seed, decay, phases); the clones then race
// independently, sharing nothing.

// Clone returns a deep copy of the solver, valid for independent use
// from another goroutine. Any in-progress search is undone first
// (backtrack to decision level 0); level-0 facts, problem clauses, and
// learned clauses carry over, as do activities and saved phases, so a
// clone resumes from the same logical state. Search counters reset so a
// worker's Stats report only its own effort. The Interrupt hook does not
// carry over: it closes over the parent.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	c := &Solver{
		clauses:      make([]clause, len(s.clauses)),
		watches:      make([][]watcher, len(s.watches)),
		assign:       append([]lbool(nil), s.assign...),
		level:        append([]int32(nil), s.level...),
		reason:       append([]clauseRef(nil), s.reason...),
		trail:        append([]Lit(nil), s.trail...),
		trailLk:      append([]int32(nil), s.trailLk...),
		qhead:        s.qhead,
		activity:     append([]float64(nil), s.activity...),
		varInc:       s.varInc,
		polarity:     append([]bool(nil), s.polarity...),
		seen:         make([]bool, len(s.seen)),
		numVars:      s.numVars,
		added:        s.added,
		unsat:        s.unsat,
		numLearned:   s.numLearned,
		reduceAt:     s.reduceAt,
		MaxConflicts: s.MaxConflicts,
		VarDecay:     s.VarDecay,
		RandFreq:     s.RandFreq,
		Seed:         s.Seed,
	}
	for i := range s.clauses {
		cl := &s.clauses[i]
		c.clauses[i] = clause{
			lits:    append([]Lit(nil), cl.lits...),
			learned: cl.learned,
			deleted: cl.deleted,
			act:     cl.act,
		}
	}
	for i, ws := range s.watches {
		c.watches[i] = append([]watcher(nil), ws...)
	}
	c.order = &varHeap{
		solver: c,
		heap:   append([]int(nil), s.order.heap...),
		pos:    append([]int(nil), s.order.pos...),
	}
	return c
}

// ScramblePolarity pseudo-randomly flips the saved phase of every
// variable, diversifying which half of the search space a cloned worker
// explores first. It must be called between Solve calls (it backtracks
// to level 0).
func (s *Solver) ScramblePolarity(seed uint64) {
	s.cancelUntil(0)
	state := seed
	for v := range s.polarity {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if (z^(z>>31))&1 == 1 {
			s.polarity[v] = !s.polarity[v]
		}
	}
}

// nextRand advances the splitmix64 diversification PRNG seeded by Seed.
func (s *Solver) nextRand() uint64 {
	s.Seed += 0x9e3779b97f4a7c15
	z := s.Seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
