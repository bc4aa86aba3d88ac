package zen

import (
	"context"

	"zen-go/internal/backends"
	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/portfolio"
)

// Queryable is the type-erased analysis surface of a model: its argument
// variables and result DAG as raw nodes. Every *Fn and *Fn2 implements
// it; it is what lets a service layer (internal/serve) run Find, Verify,
// FindAll, and Evaluate against a registry model whose Go types it never
// sees — predicates are compiled straight to DAG nodes and witnesses
// are decoded as interp values.
type Queryable interface {
	Lintable
	// QueryArgs returns the symbolic argument variables, in parameter
	// order. Each is an OpVar node carrying its type and VarID.
	QueryArgs() []*core.Node
	// QueryOut returns the result DAG of the model applied to QueryArgs.
	QueryOut() *core.Node
}

// QueryArgs implements Queryable.
func (fn *Fn[I, O]) QueryArgs() []*core.Node { return []*core.Node{fn.arg.n} }

// QueryOut implements Queryable.
func (fn *Fn[I, O]) QueryOut() *core.Node { return fn.out.n }

// QueryArgs implements Queryable.
func (fn *Fn2[A, B, O]) QueryArgs() []*core.Node { return []*core.Node{fn.argA.n, fn.argB.n} }

// QueryOut implements Queryable.
func (fn *Fn2[A, B, O]) QueryOut() *core.Node { return fn.out.n }

var (
	_ Queryable = (*Fn[bool, bool])(nil)
	_ Queryable = (*Fn2[bool, bool, bool])(nil)
)

// RawModel is a solver model for a raw query: one concrete value per
// argument variable ID.
type RawModel = map[int32]*interp.Value

// FindRaw searches for an assignment of the given argument variables
// satisfying cond, a boolean DAG over them (typically a predicate applied
// to a Queryable's args and out). It is the untyped engine behind the
// service layer; the typed Fn.Find remains the API for Go callers.
func FindRaw(ctx context.Context, cond *core.Node, args []*core.Node, opts ...Option) (m RawModel, found bool, err error) {
	o := buildOptions(opts)
	o.Ctx = ctx
	err = o.query("find", prebuilt(cond), args, 1, func(mm RawModel) { m, found = mm, true })
	return m, found, err
}

// FindAllRaw enumerates up to max distinct satisfying assignments,
// re-solving with blocking constraints. On cancellation it returns the
// models found before the cut together with the context's error.
func FindAllRaw(ctx context.Context, cond *core.Node, args []*core.Node, max int, opts ...Option) (ms []RawModel, err error) {
	o := buildOptions(opts)
	o.Ctx = ctx
	err = o.query("findall", prebuilt(cond), args, max, func(m RawModel) { ms = append(ms, m) })
	return ms, err
}

// prebuilt is the condition of a raw query, built by the caller.
func prebuilt(cond *core.Node) func(*obs.Rec) *core.Node {
	return func(*obs.Rec) *core.Node { return cond }
}

// built is the condition of a typed query: the predicate is applied to
// the model's symbolic arguments inside the record, timed as "build".
func built(pred func() Value[bool]) func(*obs.Rec) *core.Node {
	return func(rec *obs.Rec) *core.Node {
		defer rec.Phase("build")()
		return pred().n
	}
}

// query is the one driver behind Find, FindAll, Fn2.Find, FindRaw and
// FindAllRaw: it opens the analysis record, builds the condition, opens
// a solve session over args and hands each of up to max distinct models
// to yield, in order. Cancellation (a dead o.Ctx) is returned as an
// error after the models yielded before it.
func (o Options) query(analysis string, cond func(*obs.Rec) *core.Node, args []*core.Node, max int, yield func(RawModel)) (err error) {
	defer cancel.Trap(&err)
	chk := o.check()
	chk.Point()
	rec := o.begin(analysis)
	defer rec.End()
	c := cond(rec)
	if max <= 0 {
		return nil
	}
	sess, err := o.open(c, args, chk, rec)
	if err != nil {
		return err
	}
	n := 0
	for ok := sess.Found(); ok; ok = sess.Next(chk, rec) {
		yield(sess.Models())
		if n++; n == max {
			break
		}
	}
	sess.Report(rec)
	if max > 1 {
		rec.Event("models", n)
	}
	return nil
}

// open measures and presolves cond, then opens the solve session over
// args on the backend the options name: a portfolio race, or a race of
// one on BDD or SAT. It is the only place the package picks a solver;
// the session's first verdict and model are in when it returns.
func (o *Options) open(cond *core.Node, args []*core.Node, chk cancel.Check, rec *obs.Rec) (*portfolio.Session, error) {
	o.measureDAG(rec, cond)
	q := portfolio.Query{Cond: o.presolve(cond, rec), Vars: make([]portfolio.VarSpec, len(args))}
	for i, a := range args {
		q.Vars[i] = portfolio.VarSpec{ID: a.VarID, Type: a.Type, Bound: o.ListBound, Name: a.Name}
	}
	switch o.Backend {
	case Portfolio:
		return portfolio.Run(q, portfolio.Config{SATWorkers: o.PortfolioWorkers, Check: chk}, rec)
	case SAT:
		return portfolio.Solo("sat", backends.NewSAT(), q, chk, rec), nil
	}
	return portfolio.Solo("bdd", backends.NewBDD(), q, chk, rec), nil
}

// EvaluateRaw evaluates a DAG under concrete values for its variables —
// the untyped engine behind the service layer's evaluate queries. The
// interpreter polls the context periodically.
func EvaluateRaw(ctx context.Context, root *core.Node, env RawModel) (v *interp.Value, err error) {
	defer cancel.Trap(&err)
	chk := cancel.FromContext(ctx)
	chk.Point()
	ienv := make(interp.Env, len(env))
	for id, val := range env {
		ienv[id] = val
	}
	return interp.EvalCheck(root, ienv, chk), nil
}

// LiftRaw builds a constant DAG node from a concrete value, in the global
// builder. The service layer uses it to embed JSON literals into
// predicate DAGs; because the builder hash-conses, equal literals share
// one node.
func LiftRaw(v *interp.Value) *core.Node {
	b := build
	switch v.Type.Kind {
	case core.KindBool:
		return b.BoolConst(v.B)
	case core.KindBV:
		return b.BVConst(v.Type, v.U)
	case core.KindObject:
		kids := make([]*core.Node, len(v.Fields))
		for i, f := range v.Fields {
			kids[i] = LiftRaw(f)
		}
		return b.Create(v.Type, kids...)
	case core.KindList:
		n := b.ListNil(v.Type)
		for i := len(v.Elems) - 1; i >= 0; i-- {
			n = b.ListCons(LiftRaw(v.Elems[i]), n)
		}
		return n
	}
	panic("zen: LiftRaw: unknown kind")
}
