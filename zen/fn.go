package zen

import (
	"context"
	"reflect"

	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
)

// Backend selects the solver used for symbolic analyses.
type Backend int

// Available solver backends.
const (
	// BDD solves with binary decision diagrams.
	BDD Backend = iota
	// SAT solves by bit-blasting to CNF and running CDCL search — the
	// analogue of the paper's SMT(bitvector) backend.
	SAT
	// Portfolio races the BDD backend against a pool of diversified,
	// clause-sharing SAT workers and answers with the first definitive
	// verdict; the losers are cancelled. See internal/portfolio and
	// docs/portfolio.md.
	Portfolio
	// Auto picks one of the above statically, per query: a one-pass
	// feature extraction over the query DAG feeds a cost model and the
	// analysis runs on the predicted-cheapest backend. See
	// WithAutoBackend and internal/absint.
	Auto
)

func (b Backend) String() string {
	switch b {
	case BDD:
		return "bdd"
	case SAT:
		return "sat"
	case Auto:
		return "auto"
	}
	return "portfolio"
}

// Options configures symbolic analyses.
type Options struct {
	// Backend is the solver used (default BDD).
	Backend Backend
	// ListBound bounds the length of symbolic lists (DefaultListBound), like the
	// maximum-list-length parameter of the paper's Find.
	ListBound int
	// Stats, when non-nil, accumulates per-analysis telemetry: phase
	// timings, DAG measurements, and backend counters.
	Stats *Stats
	// Tracer, when non-nil, receives one span per analysis with one event
	// per phase.
	Tracer Tracer
	// Ctx, when non-nil, bounds the analysis: its deadline and
	// cancellation are polled periodically inside the solver loops. See
	// WithContext for how cancellation surfaces on each API.
	Ctx context.Context
	// PortfolioWorkers is the number of diversified SAT workers the
	// Portfolio backend races alongside the BDD strategy; 0 picks a
	// default from GOMAXPROCS. Ignored by the single backends.
	PortfolioWorkers int
	// Presolve enables the abstract-interpretation presolve pass before
	// the solver runs (see WithPresolve).
	Presolve bool
}

// Option mutates analysis options.
type Option func(*Options)

// WithBackend selects the solver backend.
func WithBackend(b Backend) Option { return func(o *Options) { o.Backend = b } }

// WithListBound bounds symbolic list lengths.
func WithListBound(k int) Option { return func(o *Options) { o.ListBound = k } }

// DefaultListBound is the symbolic list length bound of an analysis that
// sets no WithListBound.
const DefaultListBound = 3

// WithPortfolio selects the Portfolio backend: the analysis races BDD
// against a clause-sharing pool of diversified SAT workers, answers with
// the first definitive verdict, and cancels the losers. Equivalent to
// WithBackend(Portfolio).
func WithPortfolio() Option { return func(o *Options) { o.Backend = Portfolio } }

// WithPortfolioWorkers sets the Portfolio backend's SAT worker count
// (0 picks a default from GOMAXPROCS).
func WithPortfolioWorkers(n int) Option { return func(o *Options) { o.PortfolioWorkers = n } }

// WithStats attaches a telemetry accumulator to the analysis. The same
// Stats may be shared across analyses (and backends); read it back with
// Snapshot or String after the call.
func WithStats(st *Stats) Option { return func(o *Options) { o.Stats = st } }

// WithTracer attaches a tracing hook to the analysis.
func WithTracer(tr Tracer) Option { return func(o *Options) { o.Tracer = tr } }

// WithContext bounds the analysis by a context: solver loops poll its
// cancellation periodically, so an expired deadline or a cancelled
// request stops the work within a bounded amount of solver progress
// instead of running to completion.
//
// Error-returning variants (FindCtx, VerifyCtx, SolveCtx, ...) take the
// context as an argument and return its error on cancellation. The plain
// variants keep their witness-only signatures, so when a function carries
// WithContext (typically via Use) and the context dies mid-analysis they
// panic with *CancelledError — a cancelled search has no sound boolean
// answer. Prefer the Ctx variants wherever a context is in play.
func WithContext(ctx context.Context) Option { return func(o *Options) { o.Ctx = ctx } }

// check derives the solver-poll hook from the options' context; nil (the
// zero-cost default) when no cancellable context is attached.
func (o *Options) check() cancel.Check { return cancel.FromContext(o.Ctx) }

// CancelledError is the panic value of a witness-only analysis (Find,
// Verify, Solve, Forward, ...) whose attached context was cancelled
// mid-solve. Err is the context's error (context.Canceled or
// context.DeadlineExceeded).
type CancelledError struct{ Err error }

func (e *CancelledError) Error() string { return "zen: analysis cancelled: " + e.Err.Error() }

// Unwrap exposes the context error to errors.Is.
func (e *CancelledError) Unwrap() error { return e.Err }

// mustNotCancel converts an error from a *Err analysis core into the
// panic contract of the witness-only API surface.
func mustNotCancel(err error) {
	if err != nil {
		panic(&CancelledError{Err: err})
	}
}

func buildOptions(opts []Option) Options {
	o := Options{Backend: BDD, ListBound: DefaultListBound}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// buildOptionsFrom folds defaults, then base options, then call options.
func buildOptionsFrom(base, call []Option) Options {
	o := Options{Backend: BDD, ListBound: DefaultListBound}
	for _, f := range base {
		f(&o)
	}
	for _, f := range call {
		f(&o)
	}
	return o
}

// begin opens a telemetry record for one analysis under these options.
func (o *Options) begin(analysis string) *obs.Rec {
	return obs.Begin(o.Stats, o.Tracer, o.Backend.String(), analysis)
}

// measureDAG records DAG statistics when a Stats is attached. The measure
// walks the whole DAG, so it is skipped on the un-instrumented fast path.
func (o *Options) measureDAG(rec *obs.Rec, n *core.Node) {
	if o.Stats == nil {
		return
	}
	m := core.Measure(n)
	rec.SetDAG(m.Nodes, m.Depth, m.Vars)
}

// Fn is a Zen function from I to O (the paper's ZenFunction). It records
// the expression DAG produced by applying the model function to a symbolic
// argument; every analysis operates on that DAG.
type Fn[I, O any] struct {
	arg  Value[I]
	out  Value[O]
	f    func(Value[I]) Value[O]
	opts []Option // defaults applied before per-call options (see Use)
}

// Func builds a Zen function from a model written as a Go function over
// Values. The model is invoked once, with a symbolic argument, to build the
// DAG.
func Func[I, O any](f func(Value[I]) Value[O]) *Fn[I, O] {
	arg := Symbolic[I]("arg")
	return &Fn[I, O]{arg: arg, out: f(arg), f: f}
}

// Use attaches default options to the function, applied before any
// per-call options of subsequent analyses. It is the way to observe
// analyses that take no option parameter (Evaluate, Compile):
//
//	var st zen.Stats
//	fn := zen.Func(model).Use(zen.WithStats(&st))
//
// Use returns fn for chaining.
func (fn *Fn[I, O]) Use(opts ...Option) *Fn[I, O] {
	fn.opts = append(fn.opts, opts...)
	return fn
}

// options folds the function's default options with per-call options.
func (fn *Fn[I, O]) options(call []Option) Options {
	return buildOptionsFrom(fn.opts, call)
}

// Arg returns the symbolic parameter of the function.
func (fn *Fn[I, O]) Arg() Value[I] { return fn.arg }

// Out returns the symbolic result DAG of the function.
func (fn *Fn[I, O]) Out() Value[O] { return fn.out }

// Apply builds the application of the model to a new argument expression.
func (fn *Fn[I, O]) Apply(x Value[I]) Value[O] { return fn.f(x) }

// Evaluate runs the model on a concrete input (simulation). Evaluation is
// instrumented only when the function carries attached Stats or Tracer
// options (see Use): it is the hot concrete path, and the nil-check keeps
// it free of telemetry overhead otherwise.
func (fn *Fn[I, O]) Evaluate(x I) O {
	if len(fn.opts) > 0 {
		if o := fn.options(nil); o.Stats != nil || o.Tracer != nil {
			rec := obs.Begin(o.Stats, o.Tracer, "interp", "evaluate")
			defer rec.End()
			o.measureDAG(rec, fn.out.n)
			defer rec.Phase("interp")()
			return fn.evaluate(x)
		}
	}
	return fn.evaluate(x)
}

func (fn *Fn[I, O]) evaluate(x I) O {
	env := interp.Env{fn.arg.n.VarID: liftValue(reflectValue(x))}
	v := interp.Eval(fn.out.n, env)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return toGo(v, rt).Interface().(O)
}

// EvaluateCtx is Evaluate bounded by a context: the interpreter polls the
// context periodically, so evaluation of a pathologically large DAG (or a
// batch driver looping over inputs) can be cut off. On cancellation it
// returns the zero value and the context's error.
func (fn *Fn[I, O]) EvaluateCtx(ctx context.Context, x I) (out O, err error) {
	defer cancel.Trap(&err)
	chk := cancel.FromContext(ctx)
	chk.Point()
	env := interp.Env{fn.arg.n.VarID: liftValue(reflectValue(x))}
	v := interp.EvalCheck(fn.out.n, env, chk)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return toGo(v, rt).Interface().(O), nil
}

// Find searches for an input such that pred(input, output) holds,
// mirroring the paper's f.Find((in, out) => ...). It returns the witness
// and true, or the zero value and false if no input exists (within list
// bounds). If the function carries a context (WithContext) that dies
// mid-solve, Find panics with *CancelledError; use FindCtx to get the
// error as a value.
func (fn *Fn[I, O]) Find(pred func(Value[I], Value[O]) Value[bool], opts ...Option) (I, bool) {
	w, ok, err := fn.findErr(pred, fn.options(opts))
	mustNotCancel(err)
	return w, ok
}

// FindCtx is Find bounded by a context: on cancellation or deadline
// expiry it stops the solver and returns the context's error.
func (fn *Fn[I, O]) FindCtx(ctx context.Context, pred func(Value[I], Value[O]) Value[bool], opts ...Option) (I, bool, error) {
	o := fn.options(opts)
	o.Ctx = ctx
	return fn.findErr(pred, o)
}

func (fn *Fn[I, O]) findErr(pred func(Value[I], Value[O]) Value[bool], o Options) (w I, found bool, err error) {
	err = o.query("find", fn.cond(pred), fn.QueryArgs(), 1, func(m RawModel) {
		w, found = goValue[I](m[fn.arg.n.VarID]), true
	})
	return w, found, err
}

// cond applies a predicate to the function's symbolic argument and
// result, as a query condition.
func (fn *Fn[I, O]) cond(pred func(Value[I], Value[O]) Value[bool]) func(*obs.Rec) *core.Node {
	return built(func() Value[bool] { return pred(fn.arg, fn.out) })
}

// Verify checks that property(input, output) holds for every input. It
// returns true when the property is valid, or false plus a counterexample.
// Like Find, it panics with *CancelledError if an attached context dies
// mid-solve; use VerifyCtx to get the error as a value.
func (fn *Fn[I, O]) Verify(property func(Value[I], Value[O]) Value[bool], opts ...Option) (bool, I) {
	cex, found := fn.Find(func(i Value[I], o Value[O]) Value[bool] {
		return Not(property(i, o))
	}, opts...)
	return !found, cex
}

// VerifyCtx is Verify bounded by a context. On cancellation the returned
// validity is meaningless and the error is non-nil; callers must check
// the error first.
func (fn *Fn[I, O]) VerifyCtx(ctx context.Context, property func(Value[I], Value[O]) Value[bool], opts ...Option) (bool, I, error) {
	cex, found, err := fn.FindCtx(ctx, func(i Value[I], o Value[O]) Value[bool] {
		return Not(property(i, o))
	}, opts...)
	return !found && err == nil, cex, err
}

// FindAll invokes yield for successive distinct witnesses of pred, up to
// max (or until exhausted). It re-solves with blocking constraints, like
// repeated Find calls in the paper's API. Like Find, it panics with
// *CancelledError if an attached context dies mid-solve; use FindAllCtx
// to get the error as a value.
func (fn *Fn[I, O]) FindAll(pred func(Value[I], Value[O]) Value[bool], max int, opts ...Option) []I {
	ws, err := fn.findAllErr(pred, max, fn.options(opts))
	mustNotCancel(err)
	return ws
}

// FindAllCtx is FindAll bounded by a context. On cancellation it returns
// the witnesses found before the cut together with the context's error.
func (fn *Fn[I, O]) FindAllCtx(ctx context.Context, pred func(Value[I], Value[O]) Value[bool], max int, opts ...Option) ([]I, error) {
	o := fn.options(opts)
	o.Ctx = ctx
	return fn.findAllErr(pred, max, o)
}

func (fn *Fn[I, O]) findAllErr(pred func(Value[I], Value[O]) Value[bool], max int, o Options) (ws []I, err error) {
	// The partial result survives cancellation: yield appends into ws,
	// so witnesses found before the abort are returned with the error.
	err = o.query("findall", fn.cond(pred), fn.QueryArgs(), max, func(m RawModel) {
		ws = append(ws, goValue[I](m[fn.arg.n.VarID]))
	})
	return ws, err
}
