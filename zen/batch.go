package zen

import (
	"context"
	"reflect"
	"sync"

	"zen-go/internal/bitslice"
	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
)

// BatchLanes is the width of one bitsliced batch step: the engine
// evaluates this many inputs per plan execution, one per bit of a
// machine word.
const BatchLanes = bitslice.Lanes

// planCache memoizes bitslice plans per result DAG. Roots are hash-consed
// and long-lived (they belong to models), so keying on the node pointer
// is sound and the cache stays bounded by the number of distinct models.
var planCache sync.Map // *core.Node -> *planEntry

type planEntry struct {
	once sync.Once
	plan *bitslice.Plan
	err  error
}

// planFor compiles (or fetches) the bitslice plan for a model's result
// DAG. compiled reports whether this call performed the compilation,
// so callers can attribute plan-size telemetry exactly once.
func planFor(root *core.Node, args []*core.Node) (plan *bitslice.Plan, compiled bool, err error) {
	e, _ := planCache.LoadOrStore(root, &planEntry{})
	entry := e.(*planEntry)
	entry.once.Do(func() {
		entry.plan, entry.err = bitslice.Compile(root, args...)
		compiled = true
	})
	return entry.plan, compiled, entry.err
}

// BatchCompiles reports whether a model's result DAG is inside the
// bitslice fragment — i.e. whether EvaluateBatch and EvaluateBatchRaw
// will run the bitsliced engine rather than the scalar fallback. The
// service layer uses it to stamp stream provenance up front.
func BatchCompiles(q Queryable) bool {
	_, _, err := planFor(q.QueryOut(), q.QueryArgs())
	return err == nil
}

// EvaluateBatch runs the model on a slice of concrete inputs at once —
// the simulation path for packet-rate workloads. Inputs are transposed
// into a bitsliced representation and evaluated 64 per step by a plan of
// machine-word bitwise instructions (see internal/bitslice); models that
// use lists fall back transparently to the scalar interpreter. Results
// are positional: out[i] is the model applied to inputs[i].
func EvaluateBatch[I, O any](f func(Value[I]) Value[O], inputs []I, opts ...Option) []O {
	return Func(f).Use(opts...).EvaluateBatch(inputs)
}

// EvaluateBatch runs the model on a slice of concrete inputs through the
// bitsliced batch engine (see the package-level EvaluateBatch). Telemetry
// flows to the function's attached Stats/Tracer (see Use) and the global
// aggregate.
func (fn *Fn[I, O]) EvaluateBatch(inputs []I) []O {
	o := fn.options(nil)
	return fn.evaluateBatch(&o, nil, inputs)
}

// EvaluateBatchCtx is EvaluateBatch bounded by a context: cancellation is
// polled between batch steps (and inside the interpreter on the fallback
// path). On cancellation it returns nil and the context's error.
func (fn *Fn[I, O]) EvaluateBatchCtx(ctx context.Context, inputs []I) (out []O, err error) {
	defer cancel.Trap(&err)
	o := fn.options(nil)
	o.Ctx = ctx
	chk := o.check()
	chk.Point()
	return fn.evaluateBatch(&o, chk, inputs), nil
}

func (fn *Fn[I, O]) evaluateBatch(o *Options, chk cancel.Check, inputs []I) []O {
	rec := obs.Begin(o.Stats, o.Tracer, "bitslice", "evaluate-batch")
	defer rec.End()
	o.measureDAG(rec, fn.out.n)
	rt := reflect.TypeOf((*O)(nil)).Elem()
	out := make([]O, len(inputs))

	stop := rec.Phase("plan")
	plan, compiled, err := planFor(fn.out.n, []*core.Node{fn.arg.n})
	stop()
	if err != nil {
		// Outside the bitslice fragment (lists): scalar fallback with
		// identical semantics.
		rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Fallbacks: 1, Packets: int64(len(inputs))}})
		defer rec.Phase("interp")()
		for i, x := range inputs {
			env := interp.Env{fn.arg.n.VarID: liftValue(reflectValue(x))}
			out[i] = toGo(interp.EvalCheck(fn.out.n, env, chk), rt).Interface().(O)
		}
		return out
	}
	if compiled {
		rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{
			Plans:    1,
			PlanOps:  int64(plan.NumOps()),
			PlanRegs: int64(plan.NumRegs()),
		}})
	}

	regs := plan.AcquireRegs()
	defer plan.ReleaseRegs(regs)
	stop = rec.Phase("run")
	batches := int64(0)
	for base := 0; base < len(inputs); base += bitslice.Lanes {
		chk.Point()
		n := len(inputs) - base
		if n > bitslice.Lanes {
			n = bitslice.Lanes
		}
		for lane := 0; lane < n; lane++ {
			if berr := plan.Bind(regs, fn.arg.n.VarID, lane, liftValue(reflectValue(inputs[base+lane]))); berr != nil {
				panic("zen: EvaluateBatch: " + berr.Error())
			}
		}
		plan.Run(regs)
		for lane := 0; lane < n; lane++ {
			out[base+lane] = toGo(plan.Lane(regs, lane), rt).Interface().(O)
		}
		batches++
	}
	stop()
	rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Batches: batches, Packets: int64(len(inputs))}})
	return out
}

// EvaluateBatchRaw evaluates a queryable model's output on many variable
// bindings at once — the untyped engine behind the service layer's
// streaming evaluate endpoint. envs[i] must bind every argument variable
// of q; the result slice is positional. Models outside the bitslice
// fragment (lists) fall back to the scalar interpreter per binding.
func EvaluateBatchRaw(ctx context.Context, q Queryable, envs []RawModel, opts ...Option) (vs []*interp.Value, err error) {
	defer cancel.Trap(&err)
	o := buildOptions(opts)
	o.Ctx = ctx
	chk := o.check()
	chk.Point()
	rec := obs.Begin(o.Stats, o.Tracer, "bitslice", "evaluate-batch")
	defer rec.End()

	root, args := q.QueryOut(), q.QueryArgs()
	out := make([]*interp.Value, len(envs))

	stop := rec.Phase("plan")
	plan, compiled, perr := planFor(root, args)
	stop()
	if perr != nil {
		rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Fallbacks: 1, Packets: int64(len(envs))}})
		defer rec.Phase("interp")()
		for i, env := range envs {
			ienv := make(interp.Env, len(env))
			for id, v := range env {
				ienv[id] = v
			}
			out[i] = interp.EvalCheck(root, ienv, chk)
		}
		return out, nil
	}
	if compiled {
		rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{
			Plans:    1,
			PlanOps:  int64(plan.NumOps()),
			PlanRegs: int64(plan.NumRegs()),
		}})
	}

	regs := plan.AcquireRegs()
	defer plan.ReleaseRegs(regs)
	stop = rec.Phase("run")
	batches := int64(0)
	for base := 0; base < len(envs); base += bitslice.Lanes {
		chk.Point()
		n := len(envs) - base
		if n > bitslice.Lanes {
			n = bitslice.Lanes
		}
		for lane := 0; lane < n; lane++ {
			for id, v := range envs[base+lane] {
				if berr := plan.Bind(regs, id, lane, v); berr != nil {
					stop()
					return nil, berr
				}
			}
		}
		plan.Run(regs)
		for lane := 0; lane < n; lane++ {
			out[base+lane] = plan.Lane(regs, lane)
		}
		batches++
	}
	stop()
	rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Batches: batches, Packets: int64(len(envs))}})
	return out, nil
}
