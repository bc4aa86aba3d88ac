// Package portfolio races solver strategies over one hash-consed
// predicate DAG and answers with the first definitive verdict.
//
// Two observations from EXPERIMENTS.md motivate it: the winning backend
// flips by workload (BDDs win the Figure 10 reachability shapes, SAT
// wins the Anteater-style per-path checks), and no single heuristic
// configuration of the CDCL search is uniformly best. The portfolio
// therefore runs, concurrently:
//
//   - a BDD strategy: encode the DAG into a fresh BDD manager and solve;
//   - N diversified SAT workers: encode once (Tseitin), clone the solver
//     per worker, perturb each clone's search (seed, random-decision
//     frequency, VSIDS decay, saved phases), and share short learned
//     clauses through an exchange all workers drain at restarts.
//
// The first strategy to return Sat or Unsat claims the race; the rest
// are torn down through the internal/cancel protocol (each loser's next
// poll point unwinds it). A deadline that expires mid-race yields an
// error — never a vacuous verdict. Sharing is sound because learned
// clauses are consequences of the problem clauses alone (see
// internal/sat).
//
// The winner stays alive as a Session: FindAll enumeration and
// NextModel sweeps keep re-solving on the winning solver under blocking
// constraints, reusing its learned clauses instead of restarting.
package portfolio

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zen-go/internal/backends"
	"zen-go/internal/bdd"
	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/sat"
	"zen-go/internal/sym"
)

// VarSpec declares one symbolic input of a query. Allocation order
// follows the slice, so identical specs produce identical encodings in
// every strategy (and across runs: Tseitin numbering is deterministic).
type VarSpec struct {
	ID    int32
	Type  *core.Type
	Bound int
	Name  string
}

// Query is one first-model search over a predicate DAG.
type Query struct {
	Cond *core.Node
	Vars []VarSpec
}

// Config tunes a portfolio run.
type Config struct {
	// SATWorkers is the number of diversified SAT workers; 0 selects
	// max(1, min(4, GOMAXPROCS-1)). The BDD strategy always runs too, so
	// a race has SATWorkers+1 participants.
	SATWorkers int
	// Check is the caller's cancellation (typically derived from a
	// context). Every strategy polls it merged with the race's internal
	// stop signal.
	Check cancel.Check
}

func (c Config) workers() int {
	if c.SATWorkers > 0 {
		return c.SATWorkers
	}
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}

// Session is the outcome of a race, pinned to the winning strategy.
// After a Sat verdict, Next keeps enumerating distinct models on the
// winner's live solver state. Sessions are not safe for concurrent use.
type Session struct {
	found   bool
	models  map[int32]*interp.Value
	next    func(chk cancel.Check) bool
	report  func(*obs.Rec)
	winner  string
	outcome obs.PortfolioStats
}

// Found reports the race verdict: true when a model exists.
func (s *Session) Found() bool { return s.found }

// Winner names the strategy that answered first ("bdd" or "sat").
func (s *Session) Winner() string { return s.winner }

// Outcome returns the race telemetry.
func (s *Session) Outcome() obs.PortfolioStats { return s.outcome }

// Model returns the decoded value of one declared input in the current
// model. It panics outside a Found session.
func (s *Session) Model(id int32) *interp.Value {
	if !s.found {
		panic("portfolio: Model on an unsat session")
	}
	return s.models[id]
}

// Models returns the full current model keyed by input ID.
func (s *Session) Models() map[int32]*interp.Value { return s.models }

// Next re-solves on the winning strategy under a blocking constraint
// ("some input differs from the current model"), replacing the model
// read by Model. Learned clauses persist across calls, so enumerating k
// models is strictly cheaper than k independent races. The solve is
// counted into rec (which may differ from the race's record: NextModel
// opens a fresh one per call). Cancellation unwinds with cancel.Abort
// like any solver call; trap it at the API boundary.
func (s *Session) Next(chk cancel.Check, rec *obs.Rec) bool {
	if !s.found {
		return false
	}
	ok := s.next(chk)
	rec.CountSolve(ok)
	return ok
}

// Report harvests the winning backend's counters into the record. The
// counters are cumulative since the race began, so report once per
// record (matching how the single-backend paths report).
func (s *Session) Report(rec *obs.Rec) { s.report(rec) }

// ErrNoStrategy is returned when every strategy exited without a verdict
// and without a recorded cause (it indicates a portfolio bug; callers
// should treat it like cancellation).
var ErrNoStrategy = errors.New("portfolio: no strategy produced a verdict")

// state is the shared coordination block of one race.
type state struct {
	stop    cancel.Stop // trips when a winner claims
	failure cancel.Stop // first loss cause (ctx death), for the no-winner path
	winner  atomic.Int32
	res     *result      // written by the winner before stop trips, read after wg.Wait
	claimed atomic.Int64 // UnixNano of the winning claim
}

// result is the winner's continuation, built in its goroutine and
// consumed on the caller's after the race settles.
type result struct {
	strategy string
	found    bool
	decode   func() map[int32]*interp.Value
	next     func(prev map[int32]*interp.Value, chk cancel.Check) (map[int32]*interp.Value, bool)
	report   func(*obs.Rec)
}

func (st *state) claim(idx int32, r *result) bool {
	if !st.winner.CompareAndSwap(-1, idx) {
		return false
	}
	st.res = r
	st.claimed.Store(time.Now().UnixNano())
	st.stop.Trigger(nil)
	return true
}

// Run races the strategies on the query and returns the winning session.
// It returns an error only when no strategy answered — in practice when
// the caller's Check tripped (deadline, cancellation) mid-race. Run does
// not return until every strategy goroutine has exited, so a returned
// Session owns its solver exclusively and callers never leak goroutines.
func Run(q Query, cfg Config, rec *obs.Rec) (*Session, error) {
	stopPhase := rec.Phase("race")
	st := &state{}
	st.winner.Store(-1)
	raceChk := cancel.Merge(cfg.Check, st.stop.Check())

	nSAT := cfg.workers()
	satSolvers := make([]*sat.Solver, 0, nSAT)
	var satMu sync.Mutex

	var wg sync.WaitGroup
	wg.Add(2)
	go runBDD(q, st, raceChk, &wg)
	go runSATPool(q, st, raceChk, nSAT, &satMu, &satSolvers, &wg)
	wg.Wait()
	stopPhase()

	widx := st.winner.Load()
	outcome := obs.PortfolioStats{Races: 1}
	satMu.Lock()
	for _, s := range satSolvers {
		sst := s.Stats()
		outcome.ClausesShared += sst.Exported
		outcome.ClausesImported += sst.Imported
	}
	started := int64(1 + len(satSolvers)) // BDD plus every launched worker
	satMu.Unlock()
	if widx < 0 {
		err := st.failure.Err()
		if err == nil {
			err = ErrNoStrategy
		}
		return nil, err
	}
	outcome.WinsBy = map[string]int64{st.res.strategy: 1}
	outcome.LoserAborts = started - 1
	if t := st.claimed.Load(); t > 0 {
		outcome.LoserAbortNs = time.Now().UnixNano() - t
	}
	rec.Add(obs.Snapshot{Portfolio: outcome})
	rec.CountSolve(st.res.found)

	sess := &Session{
		found:   st.res.found,
		winner:  st.res.strategy,
		outcome: outcome,
		report:  st.res.report,
	}
	if st.res.found {
		stop := rec.Phase("decode")
		sess.models = st.res.decode()
		stop()
		res := st.res
		sess.next = func(chk cancel.Check) bool {
			models, ok := res.next(sess.models, chk)
			if ok {
				sess.models = models
			}
			return ok
		}
	}
	return sess, nil
}

// encode allocates the query's inputs in the algebra and evaluates the
// condition symbolically.
func encode[B comparable](alg sym.Algebra[B], q Query, chk cancel.Check) (map[int32]*sym.Input[B], B) {
	env := sym.Env[B]{}
	inputs := make(map[int32]*sym.Input[B], len(q.Vars))
	for _, v := range q.Vars {
		in := sym.Fresh(alg, v.Type, v.Bound, v.Name)
		env[v.ID] = in.Val
		inputs[v.ID] = in
	}
	out := sym.EvalCheck(alg, q.Cond, env, chk)
	return inputs, out.Bit
}

// finishRace is the shared tail of every strategy: solve, claim on a
// definitive verdict, and package the winner's continuation. The
// constraint is captured by reference so Next conjoins blocking clauses
// incrementally on the live solver.
func finishRace[B comparable](idx int32, strategy string, alg sym.Solver[B], inputs map[int32]*sym.Input[B], constraint B, st *state, chk cancel.Check) {
	ok := alg.Solve(constraint)
	cur := constraint
	st.claim(idx, &result{
		strategy: strategy,
		found:    ok,
		decode: func() map[int32]*interp.Value {
			return sym.DecodeModel(inputs, alg.BitValue)
		},
		next: func(prev map[int32]*interp.Value, chk cancel.Check) (map[int32]*interp.Value, bool) {
			armInterrupt(alg, chk)
			differs := falseOf(alg)
			for id, in := range inputs {
				differs = alg.Or(differs, sym.BlockModel(alg, in.Val, prev[id]))
			}
			cur = alg.And(cur, differs)
			if !alg.Solve(cur) {
				return nil, false
			}
			return sym.DecodeModel(inputs, alg.BitValue), true
		},
		report: func(rec *obs.Rec) { rec.ReportBackend(alg) },
	})
}

func falseOf[B comparable](alg sym.Algebra[B]) B { return alg.False() }

func armInterrupt(alg any, chk cancel.Check) {
	if i, ok := alg.(backends.Interruptible); ok {
		i.SetInterrupt(chk)
	}
}

// lost records a strategy's abort cause and swallows the cancel.Abort
// unwind; any other panic propagates.
func lost(st *state) {
	switch r := recover().(type) {
	case nil:
	case cancel.Abort:
		st.failure.Trigger(r.Err)
	default:
		panic(r)
	}
}

// runBDD is the BDD strategy: private manager, encode, solve.
func runBDD(q Query, st *state, chk cancel.Check, wg *sync.WaitGroup) {
	defer wg.Done()
	defer lost(st)
	alg := backends.NewBDD()
	armInterrupt(alg, chk)
	inputs, constraint := encode[bdd.Ref](alg, q, chk)
	finishRace[bdd.Ref](0, "bdd", alg, inputs, constraint, st, chk)
}

// runSATPool is the SAT strategy: encode once, clone the solver per
// worker, diversify, and race the clones with clause sharing.
func runSATPool(q Query, st *state, chk cancel.Check, n int, mu *sync.Mutex, solvers *[]*sat.Solver, wg *sync.WaitGroup) {
	defer wg.Done()
	defer lost(st)

	base := backends.NewSAT()
	armInterrupt(base, chk)
	inputs, constraint := encode[sat.Lit](base, q, chk)

	// Clone every worker before any of them starts solving: Clone reads
	// the base solver's state, which worker 0 mutates once racing.
	ex := newExchange(n)
	workers := make([]*sat.Solver, n)
	for w := 0; w < n; w++ {
		if w == 0 {
			workers[w] = base.S
		} else {
			workers[w] = base.S.Clone()
			diversify(workers[w], w)
		}
		workers[w].Interrupt = chk
		wireExchange(workers[w], ex, w, st)
	}
	mu.Lock()
	*solvers = append(*solvers, workers...)
	mu.Unlock()

	var inner sync.WaitGroup
	for w := 0; w < n; w++ {
		inner.Add(1)
		go func(w int, alg *backends.SAT) {
			defer inner.Done()
			defer lost(st)
			finishRace[sat.Lit](1+int32(w), "sat", alg, inputs, constraint, st, chk)
		}(w, base.WithSolver(workers[w]))
	}
	inner.Wait()

	// Detach the exchange from the winner so the enumeration session
	// neither exports to nor imports from a dead pool.
	if idx := st.winner.Load(); idx >= 1 {
		mu.Lock()
		winner := (*solvers)[idx-1]
		mu.Unlock()
		winner.LearnHook = nil
		winner.ImportHook = nil
	}
}

// diversify perturbs a cloned worker's search heuristics. Worker 0 (the
// base solver) keeps the default configuration, so a one-worker
// portfolio behaves exactly like the plain SAT backend.
func diversify(s *sat.Solver, w int) {
	s.Seed = uint64(w)*0x9e3779b97f4a7c15 + 1
	s.RandFreq = 0.02 * float64(w)
	s.VarDecay = 0.95 - 0.02*float64(w%3)
	s.ScramblePolarity(uint64(w) * 0x2545f4914f6cdd1d)
}

// wireExchange connects a worker to the clause exchange. The import hook
// checks the race's stop flag first: a shared clause must never land in
// a cancelled worker, so a worker whose race is over always imports
// nothing.
func wireExchange(s *sat.Solver, ex *exchange, w int, st *state) {
	s.LearnHook = func(lits []sat.Lit) { ex.publish(w, lits) }
	s.ImportHook = func() [][]sat.Lit {
		if st.stop.Stopped() {
			return nil
		}
		return ex.take(w)
	}
}
