package zen

import (
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"sync"
	"weak"

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

// planCache memoizes bitslice plans per model: a result DAG together
// with the argument variables it is compiled over, since a root that
// reads no argument (a constant) is shared by models over different
// variables. The root is held weakly and its entry deleted once it is
// collected, so the cache keeps no dropped model alive; a plan holds
// types, not nodes.
var planCache sync.Map // planKey -> *planEntry

type planKey struct {
	root weak.Pointer[core.Node]
	args string // the argument variable ids, 4 bytes each
}

type planEntry struct {
	once sync.Once
	plan *bitslice.Plan
	err  error
}

// planFor compiles (or fetches) the bitslice plan for a model's result
// DAG over its argument variables. The call that compiles the plan
// records its size to rec (which may be nil), so plan telemetry is
// attributed exactly once.
func planFor(rec *obs.Rec, root *core.Node, args []*core.Node) (*bitslice.Plan, error) {
	ids := make([]byte, 0, 4*len(args))
	for _, a := range args {
		ids = binary.LittleEndian.AppendUint32(ids, uint32(a.VarID))
	}
	key := planKey{root: weak.Make(root), args: string(ids)}
	e, ok := planCache.Load(key)
	if !ok {
		if e, ok = planCache.LoadOrStore(key, &planEntry{}); !ok {
			runtime.AddCleanup(root, func(k planKey) { planCache.Delete(k) }, key)
		}
	}
	entry := e.(*planEntry)
	entry.once.Do(func() {
		entry.plan, entry.err = bitslice.Compile(root, args...)
		if entry.err == nil {
			rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{
				Plans:    1,
				PlanOps:  int64(entry.plan.NumOps()),
				PlanRegs: int64(entry.plan.NumRegs()),
			}})
		}
	})
	return entry.plan, entry.err
}

// BatchCompiles reports whether a model's result DAG is inside the
// bitslice fragment — i.e. whether EvaluateBatch and EvaluateBatchRaw
// will run the bitsliced engine rather than the scalar fallback. The
// service layer uses it to stamp stream provenance up front.
func BatchCompiles(q Queryable) bool {
	_, err := planFor(nil, q.QueryOut(), q.QueryArgs())
	return err == nil
}

// EvaluateBatch runs the model on a slice of concrete inputs at once —
// the simulation path for packet-rate workloads. Inputs are transposed
// into a bitsliced representation and evaluated 64 per step by a plan of
// machine-word bitwise instructions (see internal/bitslice); models with
// list-typed inputs or results fall back transparently to the scalar
// interpreter. Results are positional: out[i] is the model applied to
// inputs[i].
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
	id := fn.arg.n.VarID
	out := make([]O, len(inputs))
	var env interp.Env // the fallback's environment, rebound per input
	err := runBatch(rec, chk, fn.out.n, []*core.Node{fn.arg.n}, len(inputs),
		func(i int) interp.Env {
			if env == nil {
				env = make(interp.Env, 1)
			}
			env[id] = liftValue(reflectValue(inputs[i]))
			return env
		},
		func(p *bitslice.Plan, regs []uint64, lane, i int) error {
			return p.Bind(regs, id, lane, liftValue(reflectValue(inputs[i])))
		},
		func(i int, v *interp.Value) { out[i] = toGo(v, rt).Interface().(O) })
	if err != nil {
		panic("zen: EvaluateBatch: " + err.Error())
	}
	return out
}

// EvaluateBatchRaw evaluates a queryable model's output on many variable
// bindings at once — the untyped engine behind the service layer's
// streaming evaluate endpoint. envs[i] must bind every argument variable
// of q; the result slice is positional. Models outside the bitslice
// fragment (list-typed inputs or results) fall back to the scalar
// interpreter per binding.
func EvaluateBatchRaw(ctx context.Context, q Queryable, envs []RawModel, opts ...Option) (vs []*interp.Value, err error) {
	defer cancel.Trap(&err)
	o := buildOptions(opts)
	o.Ctx = ctx
	chk := o.check()
	chk.Point()
	rec := obs.Begin(o.Stats, o.Tracer, "bitslice", "evaluate-batch")
	defer rec.End()

	out := make([]*interp.Value, len(envs))
	err = runBatch(rec, chk, q.QueryOut(), q.QueryArgs(), len(envs),
		func(i int) interp.Env { return envs[i] },
		func(p *bitslice.Plan, regs []uint64, lane, i int) error {
			for id, v := range envs[i] {
				if err := p.Bind(regs, id, lane, v); err != nil {
					return err
				}
			}
			return nil
		},
		func(i int, v *interp.Value) { out[i] = v })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runBatch evaluates root, a model's result over args, on n inputs: 64
// per step through the model's bitslice plan, or one at a time in the
// interpreter when the model is outside the plan fragment (list-typed
// inputs or results). Input i reaches the plan through bind (one lane)
// or the interpreter through env; its result goes to set. Cancellation
// is polled between steps. The plan, fallback, batch and packet
// telemetry goes to rec. A bind error stops the run and is returned.
func runBatch(rec *obs.Rec, chk cancel.Check, root *core.Node, args []*core.Node, n int,
	env func(i int) interp.Env,
	bind func(p *bitslice.Plan, regs []uint64, lane, i int) error,
	set func(i int, v *interp.Value)) error {
	stop := rec.Phase("plan")
	plan, err := planFor(rec, root, args)
	stop()
	if err != nil {
		rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Fallbacks: 1, Packets: int64(n)}})
		defer rec.Phase("interp")()
		for i := 0; i < n; i++ {
			set(i, interp.EvalCheck(root, env(i), chk))
		}
		return nil
	}
	regs := plan.AcquireRegs()
	defer plan.ReleaseRegs(regs)
	stop = rec.Phase("run")
	defer stop()
	batches := int64(0)
	for base := 0; base < n; base += bitslice.Lanes {
		chk.Point()
		lanes := min(n-base, bitslice.Lanes)
		for lane := 0; lane < lanes; lane++ {
			if err := bind(plan, regs, lane, base+lane); err != nil {
				return err
			}
		}
		plan.Run(regs)
		for lane := 0; lane < lanes; lane++ {
			set(base+lane, plan.Lane(regs, lane))
		}
		batches++
	}
	rec.Add(obs.Snapshot{Bitslice: obs.BitsliceStats{Batches: batches, Packets: int64(n)}})
	return nil
}
