package zen

import (
	"reflect"

	"zen-go/internal/backends"
	"zen-go/internal/bdd"
	"zen-go/internal/bitslice"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/sat"
	"zen-go/internal/sym"
	"zen-go/internal/testgen"
)

type (
	satLit = sat.Lit
	bddRef = bdd.Ref
)

func coreMeasure(n *coreNode) core.Stats { return core.Measure(n) }

// GenOptions configures GenerateInputs.
type GenOptions struct {
	// MaxPaths bounds the number of execution paths explored (0 = all).
	MaxPaths int
	// Options are the usual solver options.
	Options []Option
}

// GenerateInputs produces test inputs with high path coverage based on
// symbolic execution — one input per satisfiable branch path of the model
// (§8 of the paper). For an ACL model this yields a packet per rule.
func (fn *Fn[I, O]) GenerateInputs(g GenOptions) []I {
	o := fn.options(g.Options)
	rec := o.begin("generate")
	defer rec.End()
	o.measureDAG(rec, fn.out.n)
	stop := rec.Phase("paths")
	paths := testgen.Paths(fn.out.n, g.MaxPaths)
	stop()
	rec.Event("paths", len(paths))
	if o.Backend == SAT {
		return generateWith[I](func() sym.Solver[satLit] { return backends.NewSAT() },
			paths, fn.arg.n.VarID, o.ListBound, rec)
	}
	return generateWith[I](func() sym.Solver[bddRef] { return backends.NewBDD() },
		paths, fn.arg.n.VarID, o.ListBound, rec)
}

func generateWith[I any, B comparable](mk func() sym.Solver[B], paths []testgen.Path, varID int32, bound int, rec *obs.Rec) []I {
	// Each path gets a fresh solver: path conditions are independent
	// queries, and fresh solvers keep learned state from leaking.
	rt := reflect.TypeOf((*I)(nil)).Elem()
	var out []I
	seen := map[string]bool{}
	for _, p := range paths {
		stop := rec.Phase("symeval")
		cond := testgen.Conjunction(build, p)
		solver := mk()
		in := sym.Fresh(solver, TypeOf[I](), bound, "in")
		res := sym.Eval(solver, cond, sym.Env[B]{varID: in.Val})
		stop()
		stop = rec.Phase("solve")
		ok := solver.Solve(res.Bit)
		stop()
		rec.CountSolve(ok)
		rec.ReportBackend(solver)
		if !ok {
			continue
		}
		stop = rec.Phase("decode")
		iv := in.Decode(solver.BitValue)
		key := iv.String()
		if seen[key] {
			stop()
			continue
		}
		seen[key] = true
		out = append(out, toGo(iv, rt).Interface().(I))
		stop()
	}
	return out
}

// compileEval returns an evaluator of root over args, given their values
// in args order: one lane of the model's cached bitslice plan (the plan
// EvaluateBatch, the /v1/evaluate stream and Codegen run), or the
// interpreter for models outside the plan fragment (list-typed inputs or
// results). It is safe for concurrent use; each call takes its own
// registers or environment.
// Compilation is recorded as a "compile" analysis under o, with the
// plan counters if this call compiled the plan.
func compileEval(o Options, root *coreNode, args ...*coreNode) func(vals ...*interp.Value) *interp.Value {
	rec := obs.Begin(o.Stats, o.Tracer, "compile", "compile")
	defer rec.End()
	o.measureDAG(rec, root)
	stop := rec.Phase("compile")
	plan, err := planFor(rec, root, args)
	stop()
	if err != nil {
		return func(vals ...*interp.Value) *interp.Value {
			env := make(interp.Env, len(args))
			for i, a := range args {
				env[a.VarID] = vals[i]
			}
			return interp.Eval(root, env)
		}
	}
	return func(vals ...*interp.Value) *interp.Value {
		regs := plan.AcquireRegs()
		defer plan.ReleaseRegs(regs)
		for i, a := range args {
			if err := plan.Bind(regs, a.VarID, 0, vals[i]); err != nil {
				panic("zen: compiled model: " + err.Error())
			}
		}
		plan.Run(regs)
		return plan.Lane(regs, 0)
	}
}

// Compile extracts an executable Go implementation from the model (§8):
// the returned function runs the model's bitslice plan on one lane — the
// plan EvaluateBatch runs 64 lanes at a time — or, for models whose
// inputs or result are lists, the interpreter. It evaluates without
// symbolic machinery, is by construction in sync with the verified
// model, and is safe for concurrent use. Compilation (not the returned
// function) is instrumented under the function's attached options (see
// Use).
func (fn *Fn[I, O]) Compile() func(I) O {
	eval := compileEval(fn.options(nil), fn.out.n, fn.arg.n)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return func(x I) O {
		return toGo(eval(liftValue(reflectValue(x))), rt).Interface().(O)
	}
}

// CompileRaw returns the model's cached bitslice plan (nil for models
// outside the plan fragment) and the conversion of a Go input to an
// interpreter value. perfbench's dataplane workload calls it for the
// conversion; it goes with the next change to perfbench.
func (fn *Fn[I, O]) CompileRaw() (*bitslice.Plan, func(I) *interp.Value) {
	plan, _ := planFor(nil, fn.out.n, []*core.Node{fn.arg.n})
	return plan, func(x I) *interp.Value { return liftValue(reflectValue(x)) }
}

// PathConditions exposes the model's branch paths (for diagnostics and the
// test-generation example).
func (fn *Fn[I, O]) PathConditions(max int) int {
	return len(testgen.Paths(fn.out.n, max))
}

// ModelStats summarizes a model's symbolic footprint: DAG size/depth and
// the boolean encoding cost (gates and input bits) its solvers would pay.
type ModelStats struct {
	Nodes, Depth, Vars int // expression DAG
	Gates, Bits        int // boolean encoding (gate-count backend)
}

// Stats measures the model without solving anything.
func (fn *Fn[I, O]) Stats(listBound int) ModelStats {
	m := coreMeasure(fn.out.n)
	cnt := &backends.Counter{}
	in := sym.Fresh[backends.CBit](cnt, TypeOf[I](), listBound, "in")
	sym.Eval[backends.CBit](cnt, fn.out.n, sym.Env[backends.CBit]{fn.arg.n.VarID: in.Val})
	return ModelStats{
		Nodes: m.Nodes, Depth: m.Depth, Vars: m.Vars,
		Gates: cnt.Gates, Bits: cnt.Vars,
	}
}
