package zen

import (
	"fmt"
	"math/rand"
	"reflect"

	"zen-go/internal/core"
	"zen-go/internal/fuzz"
)

// SelfCheck cross-validates every execution path of the model against
// itself — the per-model entry point to the differential harness that
// cmd/zenfuzz runs over randomly generated models.
//
// For trials random concrete inputs it checks that the compiled model
// (Compile: one lane of the bitslice plan, or the interpreter for models
// with lists) matches interpretation (Evaluate), and that Find with the
// predicate input == x recovers exactly x on both the BDD and SAT backends.
// When the model's output is bool it additionally runs the full
// differential oracle (solver agreement, model soundness, state-set
// transformers) on the model's own DAG.
//
// The check is deterministic in seed. It returns nil when every path
// agrees, or an error describing the first divergence; telemetry flows to
// any Stats/Tracer attached via Use or opts.
func (fn *Fn[I, O]) SelfCheck(trials int, seed int64, opts ...Option) error {
	o := fn.options(opts)
	rec := o.begin("selfcheck")
	defer rec.End()
	o.measureDAG(rec, fn.out.n)

	rng := rand.New(rand.NewSource(seed))
	compiled := fn.Compile()
	rt := reflect.TypeOf((*I)(nil)).Elem()

	stop := rec.Phase("selfcheck")
	defer stop()
	for trial := 0; trial < trials; trial++ {
		v := fuzz.RandValue(rng, fn.arg.n.Type, o.ListBound)
		x := toGo(v, rt).Interface().(I)

		want := fn.evaluate(x)
		if got := compiled(x); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("zen: selfcheck trial %d: compiled(%v) = %v, interpreted = %v",
				trial, x, got, want)
		}

		// Find(input == x) has exactly one model; both backends must
		// recover it.
		for _, backend := range []Backend{BDD, SAT} {
			witness, found := fn.Find(func(i Value[I], _ Value[O]) Value[bool] {
				return Eq(i, Lift(x))
			}, append(opts, WithBackend(backend))...)
			if !found {
				return fmt.Errorf("zen: selfcheck trial %d: %v backend found no input equal to %v",
					trial, backend, x)
			}
			if !reflect.DeepEqual(witness, x) {
				return fmt.Errorf("zen: selfcheck trial %d: %v backend decoded %v for input == %v",
					trial, backend, witness, x)
			}
		}
	}

	// Boolean models are predicates: run the full cross-backend oracle on
	// the model DAG itself.
	if fn.out.n.Type.Same(core.Bool()) {
		cfg := fuzz.DefaultCheckConfig()
		cfg.ListBound = o.ListBound
		if d := fuzz.Check(fn.out.n, fn.arg.n, cfg, rng); d != nil {
			return fmt.Errorf("zen: selfcheck: %w", d)
		}
	}
	return nil
}
