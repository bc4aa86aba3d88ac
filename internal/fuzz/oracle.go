package fuzz

import (
	"fmt"
	"math/rand"

	"zen-go/internal/absint"
	"zen-go/internal/backends"
	"zen-go/internal/bitslice"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/portfolio"
	"zen-go/internal/stateset"
	"zen-go/internal/sym"
)

// Divergence kinds reported by the oracle.
const (
	KindSatDisagree      = "sat-disagree"      // BDD and SAT disagree on satisfiability
	KindCountDisagree    = "count-disagree"    // backends enumerate different model counts
	KindUnsoundModel     = "unsound-model"     // a returned model does not satisfy the predicate
	KindDuplicateModel   = "duplicate-model"   // model enumeration returned the same input twice
	KindStateSetEmpty    = "stateset-empty"    // set emptiness contradicts the solvers
	KindStateSetModel    = "stateset-model"    // a solver model is missing from the predicate's set
	KindStateSetCount    = "stateset-count"    // exact set count contradicts exhausted enumeration
	KindReverseDiverge   = "reverse-diverge"   // TransformReverse({true}) differs from the solution set
	KindForwardDiverge   = "forward-diverge"   // TransformForward of a singleton is not {f(x)}
	KindBackendPanic     = "backend-panic"     // a backend crashed on a well-typed expression
	KindPortfolioDiverge = "portfolio-diverge" // the racing portfolio disagrees with the single backends
	KindPresolveDiverge  = "presolve-diverge"  // the presolve-simplified DAG disagrees with the original
	KindBitsliceDiverge  = "bitslice-diverge"  // the bitsliced batch evaluator disagrees with the interpreter
)

// CheckConfig configures one differential check.
type CheckConfig struct {
	// ListBound is the symbolic list-length bound (the paper's Find
	// parameter) used by all solver paths.
	ListBound int
	// MaxModels caps FindAll-parity enumeration per backend.
	MaxModels int
	// ConcreteTrials is the number of random concrete inputs run through
	// the interpreter, the bitsliced batch step and the presolved DAG.
	ConcreteTrials int
	// StateSet enables the state-set transformer cross-check (list-free
	// expressions only; skipped automatically otherwise).
	StateSet bool
	// MaxStateSetBits skips the state-set path for wider input types
	// (exact counting over huge spaces is still fine, but region setup
	// cost scales with bits; 0 means no limit).
	MaxStateSetBits int
}

// DefaultCheckConfig returns the campaign default oracle settings.
func DefaultCheckConfig() CheckConfig {
	return CheckConfig{ListBound: 2, MaxModels: 4, ConcreteTrials: 4, StateSet: true, MaxStateSetBits: 48}
}

// Divergence describes one cross-backend disagreement. Expr and In identify
// the failing query; Detail is human-readable context.
type Divergence struct {
	Kind   string
	Detail string
	Expr   *core.Node
	In     *core.Node
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("%s: %s\n  expr: %s", d.Kind, d.Detail, d.Expr)
}

// Check runs the boolean expression expr over the single input variable in
// through every execution path and cross-validates them:
//
//   - interpreted vs bitsliced batch output on a full 64-lane step,
//   - BDD vs SAT satisfiability and (capped) model counts,
//   - every returned model concretely satisfies expr under interpretation,
//   - state-set emptiness/containment/count and TransformForward/Reverse
//     against direct solving (list-free expressions).
//
// It returns nil when all paths agree, or the first divergence found. rng
// drives concrete input choice only; solver paths are deterministic.
func Check(expr, in *core.Node, cfg CheckConfig, rng *rand.Rand) *Divergence {
	if expr.Type.Kind != core.KindBool {
		panic("fuzz: Check requires a boolean expression")
	}
	fail := func(kind, format string, args ...any) *Divergence {
		return &Divergence{Kind: kind, Detail: fmt.Sprintf(format, args...), Expr: expr, In: in}
	}

	var concrete []*interp.Value
	for i := 0; i < cfg.ConcreteTrials; i++ {
		concrete = append(concrete, RandValue(rng, in.Type, cfg.ListBound))
	}

	// Path 1: bitsliced batch evaluation. All 64 lanes of one transposed
	// step must agree with the scalar interpreter; list-typed inputs sit
	// outside the bitslice fragment and are skipped.
	if d := checkBitslice(expr, in, concrete, cfg, rng); d != nil {
		return d.fill(expr, in)
	}

	// Path 2: abstract-interpretation presolve parity. The simplified
	// DAG must agree with the original on every concrete input, be a
	// fixpoint of Simplify, and lead the solvers to the same verdict —
	// with each of its models checked against the ORIGINAL predicate, so
	// an unsound rewrite cannot hide behind a matching sat bit.
	simp, div := simplifyChecked(expr, in, concrete)
	if div != nil {
		return div.fill(expr, in)
	}

	// Path 3+4: BDD and SAT find/findall with model-soundness checking.
	bddRes := enumerate(func() anySolver { return wrapSolver(backends.NewBDD()) }, expr, expr, in, cfg)
	if bddRes.div != nil {
		return bddRes.div.fill(expr, in)
	}
	satRes := enumerate(func() anySolver { return wrapSolver(backends.NewSAT()) }, expr, expr, in, cfg)
	if satRes.div != nil {
		return satRes.div.fill(expr, in)
	}
	if bddRes.sat != satRes.sat {
		return fail(KindSatDisagree, "bdd sat=%v, sat sat=%v (bound %d)", bddRes.sat, satRes.sat, cfg.ListBound)
	}
	if bddRes.exhausted && len(satRes.models) > len(bddRes.models) {
		return fail(KindCountDisagree, "bdd exhausted at %d models, sat found %d", len(bddRes.models), len(satRes.models))
	}
	if satRes.exhausted && len(bddRes.models) > len(satRes.models) {
		return fail(KindCountDisagree, "sat exhausted at %d models, bdd found %d", len(satRes.models), len(bddRes.models))
	}

	// Path 4b: the racing portfolio must agree with the
	// single backends on satisfiability and enumeration counts. Its
	// witness values are timing-dependent (the winner varies), but
	// enumerate checks every model for concrete soundness, so parity is
	// over verdicts and counts, never over witness identity.
	pfRes := enumerate(newPortfolioSolver, expr, expr, in, cfg)
	if pfRes.div != nil {
		return pfRes.div.fill(expr, in)
	}
	if pfRes.sat != satRes.sat {
		return fail(KindPortfolioDiverge, "portfolio sat=%v, single backends sat=%v (bound %d)", pfRes.sat, satRes.sat, cfg.ListBound)
	}
	if pfRes.exhausted && len(satRes.models) > len(pfRes.models) {
		return fail(KindPortfolioDiverge, "portfolio exhausted at %d models, sat found %d", len(pfRes.models), len(satRes.models))
	}
	if satRes.exhausted && len(pfRes.models) > len(satRes.models) {
		return fail(KindPortfolioDiverge, "sat exhausted at %d models, portfolio found %d", len(satRes.models), len(pfRes.models))
	}

	// Path 4c: solve the simplified DAG and require verdict and model-count
	// parity with the original; enumerate validates each simplified-DAG
	// model against the original expr.
	psRes := enumerate(func() anySolver { return wrapSolver(backends.NewBDD()) }, simp, expr, in, cfg)
	if psRes.div != nil {
		return psRes.div.fill(expr, in)
	}
	if psRes.sat != bddRes.sat {
		return fail(KindPresolveDiverge, "simplified sat=%v, original sat=%v (bound %d)\n  simplified: %s", psRes.sat, bddRes.sat, cfg.ListBound, simp)
	}
	if psRes.exhausted != bddRes.exhausted || len(psRes.models) != len(bddRes.models) {
		return fail(KindPresolveDiverge, "simplified enumerated %d models (exhausted=%v), original %d (exhausted=%v)",
			len(psRes.models), psRes.exhausted, len(bddRes.models), bddRes.exhausted)
	}

	// Path 5: state-set transformers (exact over the whole space).
	if cfg.StateSet && listFree(expr) && listFreeType(in.Type) &&
		(cfg.MaxStateSetBits == 0 || in.Type.NumBits(cfg.ListBound) <= cfg.MaxStateSetBits) {
		if d := checkStateSet(expr, in, bddRes, concrete[0]); d != nil {
			return d.fill(expr, in)
		}
	}
	return nil
}

func (d *Divergence) fill(expr, in *core.Node) *Divergence {
	if d.Expr == nil {
		d.Expr, d.In = expr, in
	}
	return d
}

// --- bitsliced batch parity ---

// checkBitslice runs one full transposed step of the bitsliced batch
// evaluator — the ConcreteTrials inputs padded out to all 64 lanes with
// fresh random values — and requires every lane to agree with the
// scalar interpreter. Expressions over a list-typed input are outside
// the bitslice fragment and skipped; any other compile failure or panic
// is a divergence in its own right.
func checkBitslice(expr, in *core.Node, concrete []*interp.Value, cfg CheckConfig, rng *rand.Rand) (div *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Kind: KindBackendPanic, Detail: fmt.Sprintf("bitslice panicked: %v", r)}
		}
	}()
	plan, err := bitslice.Compile(expr, in)
	if err != nil {
		if bitslice.IsUnsupported(err) {
			return nil
		}
		return &Divergence{Kind: KindBitsliceDiverge, Detail: fmt.Sprintf("compile failed on a list-free input: %v", err)}
	}
	lanes := make([]*interp.Value, 0, bitslice.Lanes)
	lanes = append(lanes, concrete...)
	for len(lanes) < bitslice.Lanes {
		lanes = append(lanes, RandValue(rng, in.Type, cfg.ListBound))
	}
	regs := plan.NewRegs()
	if err := plan.BindLanes(regs, in.VarID, lanes); err != nil {
		return &Divergence{Kind: KindBitsliceDiverge, Detail: fmt.Sprintf("bind failed: %v", err)}
	}
	plan.Run(regs)
	for i, x := range lanes {
		want := interp.Eval(expr, interp.Env{in.VarID: x}).B
		if got := plan.Lane(regs, i).B; got != want {
			return &Divergence{Kind: KindBitsliceDiverge,
				Detail: fmt.Sprintf("lane %d input %s: interpreted=%v bitsliced=%v", i, x, want, got)}
		}
	}
	return nil
}

// --- presolve parity ---

// simplifyChecked runs the abstract-interpretation simplifier on its own
// builder, checks idempotence (Simplify must be a no-op on its own
// output) and agreement with the original on the concrete inputs. Panics,
// the interpreter's included (for list expressions this is its first run
// on the inputs), surface as backend-panic divergences.
func simplifyChecked(expr, in *core.Node, concrete []*interp.Value) (root *core.Node, div *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Kind: KindBackendPanic, Detail: fmt.Sprintf("presolve parity panicked: %v", r)}
		}
	}()
	res := absint.Simplify(nil, expr)
	if again := absint.Simplify(res.Builder, res.Root); again.Root != res.Root {
		return nil, &Divergence{Kind: KindPresolveDiverge,
			Detail: fmt.Sprintf("not idempotent:\n  once:  %s\n  twice: %s", res.Root, again.Root)}
	}
	for _, x := range concrete {
		want := interp.Eval(expr, interp.Env{in.VarID: x}).B
		if got := interp.Eval(res.Root, interp.Env{in.VarID: x}).B; got != want {
			return nil, &Divergence{Kind: KindPresolveDiverge,
				Detail: fmt.Sprintf("input %s: original=%v simplified=%v\n  simplified: %s", x, want, got, res.Root)}
		}
	}
	return res.Root, nil
}

// --- solver enumeration ---

// anySolver erases the algebra's bit type so BDD and SAT enumeration share
// one driver.
type anySolver interface {
	eval(expr, in *core.Node, bound int)
	solve() bool
	decode() *interp.Value
	block(model *interp.Value)
}

type erasedSolver[B comparable] struct {
	alg        sym.Solver[B]
	input      *sym.Input[B]
	constraint B
}

func wrapSolver[B comparable](alg sym.Solver[B]) anySolver { return &erasedSolver[B]{alg: alg} }

func (s *erasedSolver[B]) eval(expr, in *core.Node, bound int) {
	s.input = sym.Fresh(s.alg, in.Type, bound, "in")
	out := sym.Eval(s.alg, expr, sym.Env[B]{in.VarID: s.input.Val})
	s.constraint = out.Bit
}

func (s *erasedSolver[B]) solve() bool           { return s.alg.Solve(s.constraint) }
func (s *erasedSolver[B]) decode() *interp.Value { return s.input.Decode(s.alg.BitValue) }
func (s *erasedSolver[B]) block(m *interp.Value) {
	s.constraint = s.alg.And(s.constraint, sym.BlockModel(s.alg, s.input.Val, m))
}

// portfolioSolver adapts a portfolio race to the enumeration driver. The
// first solve runs the race; later solves enumerate incrementally on the
// winner, which blocks the previous model itself — block is a no-op.
type portfolioSolver struct {
	expr, in *core.Node
	bound    int
	sess     *portfolio.Session
}

func newPortfolioSolver() anySolver { return &portfolioSolver{} }

func (s *portfolioSolver) eval(expr, in *core.Node, bound int) {
	s.expr, s.in, s.bound = expr, in, bound
}

func (s *portfolioSolver) solve() bool {
	rec := obs.Begin(nil, nil, "portfolio", "fuzz")
	defer rec.End()
	if s.sess == nil {
		sess, err := portfolio.Run(portfolio.Query{
			Cond: s.expr,
			Vars: []portfolio.VarSpec{{ID: s.in.VarID, Type: s.in.Type, Bound: s.bound, Name: "in"}},
		}, portfolio.Config{SATWorkers: 2}, rec)
		if err != nil {
			panic(err) // enumerate's recover reports it as a backend panic
		}
		s.sess = sess
		return sess.Found()
	}
	return s.sess.Next(nil, rec)
}

func (s *portfolioSolver) decode() *interp.Value { return s.sess.Model(s.in.VarID) }
func (s *portfolioSolver) block(m *interp.Value) {}

type enumResult struct {
	sat       bool
	models    []*interp.Value
	exhausted bool
	div       *Divergence
}

// enumerate finds up to cfg.MaxModels distinct models of solveExpr,
// checking each for soundness under interpretation of checkExpr. The two differ only on the presolve-parity path, where
// the solver runs on the simplified DAG but every model must satisfy the
// original predicate.
func enumerate(mk func() anySolver, solveExpr, checkExpr, in *core.Node, cfg CheckConfig) (res enumResult) {
	defer func() {
		if r := recover(); r != nil {
			res.div = &Divergence{Kind: KindBackendPanic, Detail: fmt.Sprintf("solver panicked: %v", r)}
		}
	}()
	s := mk()
	s.eval(solveExpr, in, cfg.ListBound)
	for len(res.models) < cfg.MaxModels {
		if !s.solve() {
			res.exhausted = true
			break
		}
		res.sat = true
		m := s.decode()
		// Oracle (b): the model must concretely satisfy the predicate.
		if !interp.Eval(checkExpr, interp.Env{in.VarID: m}).B {
			res.div = &Divergence{Kind: KindUnsoundModel, Detail: fmt.Sprintf("model %s evaluates to false", m)}
			return res
		}
		for _, prev := range res.models {
			if prev.Equal(m) {
				res.div = &Divergence{Kind: KindDuplicateModel, Detail: fmt.Sprintf("model %s returned twice", m)}
				return res
			}
		}
		res.models = append(res.models, m)
		s.block(m)
	}
	return res
}

// --- state sets ---

func checkStateSet(expr, in *core.Node, solved enumResult, x *interp.Value) (div *Divergence) {
	defer func() {
		if r := recover(); r != nil {
			div = &Divergence{Kind: KindBackendPanic, Detail: fmt.Sprintf("stateset panicked: %v", r)}
		}
	}()
	w := stateset.NewWorld()
	set := w.FromPredicate(in.Type, expr, in.VarID)
	if set.IsEmpty() == solved.sat {
		return &Divergence{Kind: KindStateSetEmpty,
			Detail: fmt.Sprintf("set empty=%v but solvers sat=%v", set.IsEmpty(), solved.sat)}
	}
	for _, m := range solved.models {
		if !set.Contains(m) {
			return &Divergence{Kind: KindStateSetModel, Detail: fmt.Sprintf("model %s not in predicate set", m)}
		}
	}
	if solved.exhausted && set.Count().Int64() != int64(len(solved.models)) {
		return &Divergence{Kind: KindStateSetCount,
			Detail: fmt.Sprintf("set count %s, enumeration exhausted at %d", set.Count(), len(solved.models))}
	}

	// TransformReverse({true}) is by definition the predicate's solution
	// set; TransformForward({x}) is exactly {f(x)}.
	tr := w.Transformer(expr, in.VarID, in.Type, core.Bool())
	pre := tr.Reverse(w.Singleton(interp.Bool(true)))
	if !pre.Equal(set) {
		return &Divergence{Kind: KindReverseDiverge,
			Detail: fmt.Sprintf("Reverse({true}) count %s != solution set count %s", pre.Count(), set.Count())}
	}
	fw := tr.Forward(w.Singleton(x))
	y := interp.Eval(expr, interp.Env{in.VarID: x})
	if !fw.Contains(y) || fw.Count().Int64() != 1 {
		return &Divergence{Kind: KindForwardDiverge,
			Detail: fmt.Sprintf("Forward({%s}) count %s, contains f(x)=%v", x, fw.Count(), fw.Contains(y))}
	}
	return nil
}

// --- helpers ---

func listFreeType(t *core.Type) bool {
	switch t.Kind {
	case core.KindList:
		return false
	case core.KindObject:
		for _, f := range t.Fields {
			if !listFreeType(f.Type) {
				return false
			}
		}
	}
	return true
}

// listFree reports whether no node of the DAG has a list type (the
// state-set backend is list-free by design).
func listFree(n *core.Node) bool {
	seen := make(map[*core.Node]bool)
	var walk func(n *core.Node) bool
	walk = func(n *core.Node) bool {
		if seen[n] {
			return true
		}
		seen[n] = true
		if n.Type.Kind == core.KindList {
			return false
		}
		for _, k := range n.Kids {
			if !walk(k) {
				return false
			}
		}
		return true
	}
	return walk(n)
}
