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
// constraints, reusing its learned clauses instead of restarting. Solo
// opens the same Session on one strategy in the caller's goroutine, so
// the single backends are a race of one and every query in package zen
// runs the same encode, solve, decode and block steps.
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

// Session is one query's live solver state: the first verdict and the
// strategy that reached it. After a Sat verdict, Next keeps enumerating
// distinct models on that strategy's solver. A session comes from a
// race (Run) or from a race of one (Solo). Sessions are not safe for
// concurrent use.
type Session struct {
	found   bool
	models  map[int32]*interp.Value
	live    live
	timed   bool // a race of one times its re-encodes and re-solves too
	outcome obs.PortfolioStats
}

// live is the strategy a session keeps solving on (a *strategy[B]).
type live interface {
	label() string
	decode() map[int32]*interp.Value
	next(prev map[int32]*interp.Value, chk cancel.Check, rec *obs.Rec) bool
	report(*obs.Rec)
}

// open is the tail every session shares once its first verdict is in:
// count the solve and decode the first model.
func open(l live, found bool, rec *obs.Rec) *Session {
	rec.CountSolve(found)
	s := &Session{found: found, live: l}
	if found {
		s.decode(rec)
	}
	return s
}

func (s *Session) decode(rec *obs.Rec) {
	stop := rec.Phase("decode")
	s.models = s.live.decode()
	stop()
}

// Found reports the first verdict: true when a model exists.
func (s *Session) Found() bool { return s.found }

// Winner names the strategy that answered ("bdd" or "sat").
func (s *Session) Winner() string { return s.live.label() }

// Outcome returns the race telemetry (zero for a race of one).
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

// Next re-solves on the session's strategy under a blocking constraint
// ("some input differs from the current model"), replacing the model
// read by Model. Learned clauses persist across calls, so enumerating k
// models is strictly cheaper than k independent solves. The solve is
// counted into rec (which may differ from the first verdict's record:
// NextModel opens a fresh one per call). The blocking constraint is
// built here, never ahead of time, so a caller that stops after the
// models it wants pays for no block beyond them. Cancellation unwinds
// with cancel.Abort like any solver call; trap it at the API boundary.
func (s *Session) Next(chk cancel.Check, rec *obs.Rec) bool {
	if !s.found {
		return false
	}
	timed := rec
	if !s.timed {
		timed = nil
	}
	ok := s.live.next(s.models, chk, timed)
	rec.CountSolve(ok)
	if ok {
		s.decode(rec)
	}
	return ok
}

// Report harvests the strategy's backend counters into the record. The
// counters are cumulative since the session began, so report once per
// record.
func (s *Session) Report(rec *obs.Rec) { s.live.report(rec) }

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

// result is the winner's verdict and live strategy, built in its
// goroutine and consumed on the caller's after the race settles.
type result struct {
	found bool
	live  live
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
	outcome.WinsBy = map[string]int64{st.res.live.label(): 1}
	outcome.LoserAborts = started - 1
	if t := st.claimed.Load(); t > 0 {
		outcome.LoserAbortNs = time.Now().UnixNano() - t
	}
	rec.Add(obs.Snapshot{Portfolio: outcome})
	sess := open(st.res.live, st.res.found, rec)
	sess.outcome = outcome
	return sess, nil
}

// Solo runs one strategy on the query in the caller's goroutine: a race
// of one, with no goroutines and no stop flag. It times the encode as
// the "symeval" phase and every solve as "solve"; chk is polled inside
// the solver, whose cancel.Abort unwinds to the caller.
func Solo[B comparable](name string, alg sym.Solver[B], q Query, chk cancel.Check, rec *obs.Rec) *Session {
	stop := rec.Phase("symeval")
	s := encode(name, alg, q, chk)
	stop()
	sess := open(s, s.solve(rec), rec)
	sess.timed = true
	return sess
}

// strategy is one solver with the query encoded into it.
type strategy[B comparable] struct {
	name   string
	alg    sym.Solver[B]
	vars   []VarSpec
	inputs map[int32]*sym.Input[B]
	cur    B // the query conjoined with one block per model enumerated
}

// encode allocates the query's inputs in alg, in declaration order, and
// evaluates the condition symbolically.
func encode[B comparable](name string, alg sym.Solver[B], q Query, chk cancel.Check) *strategy[B] {
	armInterrupt(alg, chk)
	s := &strategy[B]{name: name, alg: alg, vars: q.Vars, inputs: make(map[int32]*sym.Input[B], len(q.Vars))}
	env := make(sym.Env[B], len(q.Vars))
	for _, v := range q.Vars {
		in := sym.Fresh(alg, v.Type, v.Bound, v.Name)
		env[v.ID] = in.Val
		s.inputs[v.ID] = in
	}
	s.cur = sym.EvalCheck(alg, q.Cond, env, chk).Bit
	return s
}

// solve runs the solver on the current constraint, timed into rec (nil
// inside a race, where only the race as a whole is timed).
func (s *strategy[B]) solve(rec *obs.Rec) bool {
	stop := rec.Phase("solve")
	defer stop()
	return s.alg.Solve(s.cur)
}

func (s *strategy[B]) label() string { return s.name }

func (s *strategy[B]) decode() map[int32]*interp.Value {
	return sym.DecodeModel(s.inputs, s.alg.BitValue)
}

// next conjoins "some input differs from prev" onto the live constraint,
// timed as "symeval", and re-solves incrementally on the same solver.
func (s *strategy[B]) next(prev map[int32]*interp.Value, chk cancel.Check, rec *obs.Rec) bool {
	armInterrupt(s.alg, chk)
	stop := rec.Phase("symeval")
	differs := s.alg.False()
	for _, v := range s.vars {
		differs = s.alg.Or(differs, sym.BlockModel(s.alg, s.inputs[v.ID].Val, prev[v.ID]))
	}
	s.cur = s.alg.And(s.cur, differs)
	stop()
	return s.solve(rec)
}

func (s *strategy[B]) report(rec *obs.Rec) { rec.ReportBackend(s.alg) }

// race solves a strategy inside a race and claims on a verdict.
func race[B comparable](idx int32, s *strategy[B], st *state) {
	found := s.solve(nil)
	st.claim(idx, &result{found: found, live: s})
}

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
	race(0, encode[bdd.Ref]("bdd", backends.NewBDD(), q, chk), st)
}

// runSATPool is the SAT strategy: encode once, clone the solver per
// worker, diversify, and race the clones with clause sharing.
func runSATPool(q Query, st *state, chk cancel.Check, n int, mu *sync.Mutex, solvers *[]*sat.Solver, wg *sync.WaitGroup) {
	defer wg.Done()
	defer lost(st)

	base := backends.NewSAT()
	enc := encode[sat.Lit]("sat", base, q, chk)

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
		s := *enc
		s.alg = base.WithSolver(workers[w])
		go func(w int, s *strategy[sat.Lit]) {
			defer inner.Done()
			defer lost(st)
			race(1+int32(w), s, st)
		}(w, &s)
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
