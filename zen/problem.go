package zen

import (
	"context"

	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/portfolio"
)

// Problem is a multi-variable constraint-solving session: declare symbolic
// variables with Var, add constraints with Require, then Solve and read
// back models with Get. It generalizes Fn.Find to constraint systems over
// several unknowns — the style of encoding Minesweeper uses for stable
// routing solutions. After a successful Solve, NextModel enumerates
// further distinct models.
type Problem struct {
	opts Options
	vars []*core.Node
	cond Value[bool]
	// sess is the session of the last successful Solve: Get reads its
	// current model and NextModel re-solves on it.
	sess *portfolio.Session
}

// NewProblem returns an empty problem.
func NewProblem(opts ...Option) *Problem {
	return &Problem{opts: buildOptions(opts), cond: True()}
}

// ProblemVar declares a fresh unknown of type T in the problem.
func ProblemVar[T any](p *Problem, name string) Value[T] {
	v := Symbolic[T](name)
	p.vars = append(p.vars, v.n)
	return v
}

// Require conjoins a constraint.
func (p *Problem) Require(c Value[bool]) { p.cond = And(p.cond, c) }

// Solve searches for an assignment to every declared variable satisfying
// all constraints. If the problem carries a context (WithContext) that
// dies mid-solve, Solve panics with *CancelledError; use SolveCtx to get
// the error as a value.
func (p *Problem) Solve() bool {
	ok, err := p.solveErr(p.opts.check())
	mustNotCancel(err)
	return ok
}

// SolveCtx is Solve bounded by a context: on cancellation or deadline
// expiry it stops the solver and returns the context's error.
func (p *Problem) SolveCtx(ctx context.Context) (bool, error) {
	return p.solveErr(cancel.FromContext(ctx))
}

func (p *Problem) solveErr(chk cancel.Check) (found bool, err error) {
	defer cancel.Trap(&err)
	chk.Point()
	o := p.opts // open resolves an auto backend in its copy, per solve
	rec := o.begin("problem")
	defer rec.End()
	sess, err := o.open(p.cond.n, p.vars, chk, rec)
	if err != nil {
		return false, err
	}
	sess.Report(rec)
	if sess.Found() {
		p.sess = sess
	}
	return sess.Found(), nil
}

// NextModel searches for a model distinct from the current one (differing
// in at least one declared variable), replacing the model read by Get. It
// returns false when no further model exists; the previous model then
// remains readable. NextModel panics if Solve has not succeeded, and
// panics with *CancelledError when a context attached to the problem dies
// mid-solve.
func (p *Problem) NextModel() bool {
	ok, err := p.nextErr(p.opts.check())
	mustNotCancel(err)
	return ok
}

// NextModelCtx is NextModel bounded by a context.
func (p *Problem) NextModelCtx(ctx context.Context) (bool, error) {
	return p.nextErr(cancel.FromContext(ctx))
}

func (p *Problem) nextErr(chk cancel.Check) (found bool, err error) {
	if p.sess == nil {
		panic("zen: NextModel before a successful Solve")
	}
	defer cancel.Trap(&err)
	chk.Point()
	rec := p.opts.begin("nextmodel")
	defer rec.End()
	found = p.sess.Next(chk, rec)
	p.sess.Report(rec)
	return found, nil
}

// Get reads a variable's value from the last model. It panics if Solve has
// not succeeded or v was not declared via ProblemVar.
func Get[T any](p *Problem, v Value[T]) T {
	if p.sess == nil {
		panic("zen: Get before a successful Solve")
	}
	mv, ok := p.sess.Models()[v.n.VarID]
	if !ok {
		panic("zen: Get of an undeclared variable")
	}
	return goValue[T](mv)
}

// Eval evaluates an arbitrary expression under the last model (variables
// not declared in the problem must not occur).
func EvalUnderModel[T any](p *Problem, e Value[T]) T {
	if p.sess == nil {
		panic("zen: EvalUnderModel before a successful Solve")
	}
	env := interp.Env{}
	for id, v := range p.sess.Models() {
		env[id] = v
	}
	return goValue[T](interp.Eval(e.n, env))
}
