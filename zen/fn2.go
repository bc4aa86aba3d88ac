package zen

import (
	"context"
	"reflect"

	"zen-go/internal/interp"
)

// Fn2 is a two-argument Zen function, for relational models and properties
// (two packets through one NAT, two routes through one policy, two network
// snapshots). It mirrors the paper's multi-parameter ZenFunction.
type Fn2[A, B, O any] struct {
	argA Value[A]
	argB Value[B]
	out  Value[O]
	f    func(Value[A], Value[B]) Value[O]
}

// Func2 builds a two-argument Zen function.
func Func2[A, B, O any](f func(Value[A], Value[B]) Value[O]) *Fn2[A, B, O] {
	a := Symbolic[A]("arg0")
	b := Symbolic[B]("arg1")
	return &Fn2[A, B, O]{argA: a, argB: b, out: f(a, b), f: f}
}

// Apply builds the application to new argument expressions.
func (fn *Fn2[A, B, O]) Apply(a Value[A], b Value[B]) Value[O] { return fn.f(a, b) }

// Evaluate runs the model on concrete inputs.
func (fn *Fn2[A, B, O]) Evaluate(a A, b B) O {
	env := interp.Env{
		fn.argA.n.VarID: liftValue(reflectValue(a)),
		fn.argB.n.VarID: liftValue(reflectValue(b)),
	}
	v := interp.Eval(fn.out.n, env)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return toGo(v, rt).Interface().(O)
}

// Find searches for an input pair satisfying pred(a, b, output). Like
// Fn.Find, it panics with *CancelledError if a context attached via
// WithContext dies mid-solve; use FindCtx to get the error as a value.
func (fn *Fn2[A, B, O]) Find(pred func(Value[A], Value[B], Value[O]) Value[bool], opts ...Option) (A, B, bool) {
	a, b, found, err := fn.findErr(pred, buildOptions(opts))
	mustNotCancel(err)
	return a, b, found
}

// FindCtx is Find bounded by a context: on cancellation or deadline
// expiry it stops the solver and returns the context's error.
func (fn *Fn2[A, B, O]) FindCtx(ctx context.Context, pred func(Value[A], Value[B], Value[O]) Value[bool], opts ...Option) (A, B, bool, error) {
	o := buildOptions(opts)
	o.Ctx = ctx
	return fn.findErr(pred, o)
}

func (fn *Fn2[A, B, O]) findErr(pred func(Value[A], Value[B], Value[O]) Value[bool], o Options) (a A, b B, found bool, err error) {
	cond := built(func() Value[bool] { return pred(fn.argA, fn.argB, fn.out) })
	err = o.query("find2", cond, fn.QueryArgs(), 1, func(m RawModel) {
		a, b, found = goValue[A](m[fn.argA.n.VarID]), goValue[B](m[fn.argB.n.VarID]), true
	})
	return a, b, found, err
}

// Verify checks a property over all input pairs.
func (fn *Fn2[A, B, O]) Verify(property func(Value[A], Value[B], Value[O]) Value[bool], opts ...Option) (bool, A, B) {
	a, b, found := fn.Find(func(x Value[A], y Value[B], o Value[O]) Value[bool] {
		return Not(property(x, y, o))
	}, opts...)
	return !found, a, b
}

// VerifyCtx is Verify bounded by a context. On cancellation the returned
// validity is meaningless and the error is non-nil; callers must check
// the error first.
func (fn *Fn2[A, B, O]) VerifyCtx(ctx context.Context, property func(Value[A], Value[B], Value[O]) Value[bool], opts ...Option) (bool, A, B, error) {
	a, b, found, err := fn.FindCtx(ctx, func(x Value[A], y Value[B], o Value[O]) Value[bool] {
		return Not(property(x, y, o))
	}, opts...)
	return !found && err == nil, a, b, err
}

// Compile extracts an executable two-argument implementation, evaluated
// like Fn.Compile: one lane of the model's bitslice plan, or the
// interpreter for models that use lists. It is safe for concurrent use.
func (fn *Fn2[A, B, O]) Compile() func(A, B) O {
	eval := compileEval(buildOptions(nil), fn.out.n, fn.argA.n, fn.argB.n)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return func(a A, b B) O {
		return toGo(eval(liftValue(reflectValue(a)), liftValue(reflectValue(b))), rt).Interface().(O)
	}
}
