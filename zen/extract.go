package zen

import (
	"reflect"

	"zen-go/internal/backends"
	"zen-go/internal/bdd"
	"zen-go/internal/compilejit"
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

// compileProgram compiles a DAG under telemetry: compile time is recorded
// as a "compile" phase and program size as compile counters.
func compileProgram(o Options, node *coreNode, vars ...*coreNode) *compilejit.Program {
	rec := obs.Begin(o.Stats, o.Tracer, "compile", "compile")
	defer rec.End()
	o.measureDAG(rec, node)
	stop := rec.Phase("compile")
	prog := compilejit.Compile(node, vars...)
	stop()
	rec.Add(obs.Snapshot{Compile: obs.CompileStats{
		Compiles:     1,
		Instructions: int64(prog.NumInstrs()),
		Registers:    int64(prog.NumRegs()),
	}})
	return prog
}

// Compile extracts an executable Go implementation from the model (§8):
// the expression DAG is compiled once into a register program of
// pre-dispatched closures, so the returned function evaluates without
// symbolic machinery. The implementation is by construction in sync with
// the verified model. Compilation (not the returned function) is
// instrumented under the function's attached options (see Use).
func (fn *Fn[I, O]) Compile() func(I) O {
	prog := compileProgram(fn.options(nil), fn.out.n, fn.arg.n)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	return func(x I) O {
		v := prog.Run(liftValue(reflectValue(x)))
		return toGo(v, rt).Interface().(O)
	}
}

// CompileRaw exposes the compiled program for benchmarks that want to
// exclude Go-value conversion costs.
func (fn *Fn[I, O]) CompileRaw() (*compilejit.Program, func(I) *interp.Value) {
	prog := compileProgram(fn.options(nil), fn.out.n, fn.arg.n)
	return prog, func(x I) *interp.Value { return liftValue(reflectValue(x)) }
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
