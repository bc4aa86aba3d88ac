package zenrepro

// Registry-wide differential verdict parity: for every model registered
// with zen.RegisterModel, derive one predicate known to be satisfiable
// (the model's output equals the value it actually computes on a concrete
// zero input — the input itself is the witness) and one known to be
// unsatisfiable (the output simultaneously equals two distinct values),
// then demand every backend — BDD, SAT, and the portfolio racing both —
// returns the ground-truth verdict. A wrong verdict here is a soundness
// bug in the losing backend, not a flaky divergence, so the test fails
// hard rather than comparing backends only against each other.
//
// The BDD leg is soft: whole-output equality forces a BDD over every
// output bit, which blows up on models with wide arithmetic (hashes,
// multipliers) that their own analyses never compare bit-for-bit. A BDD
// timeout is that documented capacity limit, so it is logged and skipped;
// SAT and the portfolio must always answer, and answer correctly.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zen-go/internal/bitslice"
	"zen-go/internal/core"
	"zen-go/internal/fuzz"
	"zen-go/internal/interp"
	"zen-go/zen"

	// Every package that registers models with zen.RegisterModel
	// (mirrors cmd/zenlint's registry imports).
	_ "zen-go/analyses/anteater"
	_ "zen-go/analyses/ap"
	_ "zen-go/analyses/bonsai"
	_ "zen-go/analyses/cp2dp"
	_ "zen-go/analyses/diff"
	_ "zen-go/analyses/hsa"
	_ "zen-go/analyses/minesweeper"
	_ "zen-go/analyses/reach"
	_ "zen-go/analyses/shapeshifter"
	_ "zen-go/analyses/veriflow"
	_ "zen-go/nets/acl"
	_ "zen-go/nets/bgp"
	_ "zen-go/nets/device"
	_ "zen-go/nets/ecmp"
	_ "zen-go/nets/firewall"
	_ "zen-go/nets/fwd"
	_ "zen-go/nets/gre"
	_ "zen-go/nets/igp"
	_ "zen-go/nets/mpls"
	_ "zen-go/nets/nat"
	_ "zen-go/nets/pipeline"
	_ "zen-go/nets/pkt"
	_ "zen-go/nets/routemap"
	_ "zen-go/nets/vnet"
	_ "zen-go/nets/vxlan"
)

// zeroValue builds the concrete all-zeros inhabitant of a type: false,
// 0-bits, zero fields, the empty list.
func zeroValue(t *core.Type) *interp.Value {
	switch t.Kind {
	case core.KindBool:
		return interp.Bool(false)
	case core.KindBV:
		return interp.BV(t, 0)
	case core.KindObject:
		fields := make([]*interp.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = zeroValue(f.Type)
		}
		return interp.Object(t, fields...)
	case core.KindList:
		return interp.List(t)
	}
	panic("parity: unknown kind")
}

// mutated returns a copy of v guaranteed unequal to v, or nil when the
// type has no room to differ (a field-less object).
func mutated(v *interp.Value) *interp.Value {
	switch v.Type.Kind {
	case core.KindBool:
		return interp.Bool(!v.B)
	case core.KindBV:
		return interp.BV(v.Type, v.U^1)
	case core.KindObject:
		for i, f := range v.Fields {
			if m := mutated(f); m != nil {
				fields := append([]*interp.Value(nil), v.Fields...)
				fields[i] = m
				return interp.Object(v.Type, fields...)
			}
		}
		return nil
	case core.KindList:
		// Appending one element changes the length, hence the value.
		elems := append([]*interp.Value(nil), v.Elems...)
		elems = append(elems, zeroValue(v.Type.Elem))
		return interp.List(v.Type, elems...)
	}
	panic("parity: unknown kind")
}

func TestRegistryVerdictParity(t *testing.T) {
	models := zen.RegisteredModels()
	if len(models) < 20 {
		t.Fatalf("registry holds %d models; blank imports out of sync with cmd/zenlint?", len(models))
	}
	backendList := []struct {
		name    string
		be      zen.Backend
		timeout time.Duration
		soft    bool // timeout skips the leg instead of failing the test
	}{
		{"bdd", zen.BDD, 3 * time.Second, true},
		{"sat", zen.SAT, 30 * time.Second, false},
		{"portfolio", zen.Portfolio, 30 * time.Second, false},
	}
	for _, m := range models {
		t.Run(m.Name, func(t *testing.T) {
			q, ok := m.Build().(zen.Queryable)
			if !ok {
				t.Skipf("model is not Queryable")
			}
			args := q.QueryArgs()
			env := zen.RawModel{}
			for _, a := range args {
				env[a.VarID] = zeroValue(a.Type)
			}
			concrete, err := zen.EvaluateRaw(context.Background(), q.QueryOut(), env)
			if err != nil {
				t.Fatalf("evaluate on zero input: %v", err)
			}
			b := zen.Builder()
			satCond := b.Eq(q.QueryOut(), zen.LiftRaw(concrete))
			var unsatCond *core.Node
			if other := mutated(concrete); other != nil {
				unsatCond = b.And(satCond, b.Eq(q.QueryOut(), zen.LiftRaw(other)))
			}

			for _, be := range backendList {
				ctx, cancelFn := context.WithTimeout(context.Background(), be.timeout)
				defer cancelFn()
				_, found, err := zen.FindRaw(ctx, satCond, args, zen.WithBackend(be.be))
				if err != nil {
					if be.soft && ctx.Err() != nil {
						t.Logf("%s: timed out on whole-output equality, leg skipped", be.name)
						continue
					}
					t.Fatalf("%s: sat query: %v", be.name, err)
				}
				if !found {
					t.Errorf("%s: unsat verdict on a predicate with a concrete witness", be.name)
				}
				if unsatCond == nil {
					continue
				}
				_, found, err = zen.FindRaw(ctx, unsatCond, args, zen.WithBackend(be.be))
				if err != nil {
					if be.soft && ctx.Err() != nil {
						t.Logf("%s: timed out on the unsat predicate, leg skipped", be.name)
						continue
					}
					t.Fatalf("%s: unsat query: %v", be.name, err)
				}
				if found {
					t.Errorf("%s: sat verdict on out==c && out==c' with c != c'", be.name)
				}
			}
		})
	}
}

// hasList reports whether a value of type t holds a list anywhere.
func hasList(t *core.Type) bool {
	if t.Kind == core.KindList {
		return true
	}
	for _, f := range t.Fields {
		if hasList(f.Type) {
			return true
		}
	}
	return false
}

// TestRegistryBatchParity: every registered model whose inputs and
// result are list-free runs on the bitslice plan, and its 64 seeded
// lanes agree with the interpreter.
func TestRegistryBatchParity(t *testing.T) {
	ctx := context.Background()
	onPlan := 0
	for _, m := range zen.RegisteredModels() {
		q, ok := m.Build().(zen.Queryable)
		if !ok {
			continue
		}
		listIO := hasList(q.QueryOut().Type)
		for _, a := range q.QueryArgs() {
			listIO = listIO || hasList(a.Type)
		}
		if listIO {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			var st zen.Stats
			rng := rand.New(rand.NewSource(1))
			envs := make([]zen.RawModel, zen.BatchLanes)
			for i := range envs {
				envs[i] = zen.RawModel{}
				for _, a := range q.QueryArgs() {
					envs[i][a.VarID] = fuzz.RandValue(rng, a.Type, 0)
				}
			}
			got, err := zen.EvaluateBatchRaw(ctx, q, envs, zen.WithStats(&st))
			if err != nil {
				t.Fatal(err)
			}
			if fb := st.Snapshot().Bitslice.Fallbacks; fb != 0 {
				t.Fatalf("list-free model fell back to the interpreter %d times", fb)
			}
			for i, env := range envs {
				want, err := zen.EvaluateRaw(ctx, q.QueryOut(), env)
				if err != nil {
					t.Fatal(err)
				}
				if !got[i].Equal(want) {
					t.Fatalf("lane %d: plan %s, interpreter %s", i, got[i], want)
				}
			}
		})
		onPlan++
	}
	if onPlan < 15 {
		t.Fatalf("only %d registered models are list-free; registry imports out of sync?", onPlan)
	}
}

// TestPlansHaveNoDeadInstructions: in the bitslice plan of every
// list-free registered model and of 300 seeded fuzz DAGs, each
// instruction's destination is an output register or is read by a later
// instruction.
func TestPlansHaveNoDeadInstructions(t *testing.T) {
	check := func(name string, root *core.Node, args ...*core.Node) {
		plan, err := bitslice.Compile(root, args...)
		if bitslice.IsUnsupported(err) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		read := make(map[int32]bool)
		for _, r := range plan.OutWords() {
			read[r] = true
		}
		insts := plan.Insts()
		for i := len(insts) - 1; i >= 0; i-- {
			in := insts[i]
			if !read[in.Dst] {
				t.Errorf("%s: instruction %d of %d writes r%d, which nothing reads", name, i, len(insts), in.Dst)
				return
			}
			read[in.A], read[in.B], read[in.C] = true, true, true
		}
	}
	for _, m := range zen.RegisteredModels() {
		if q, ok := m.Build().(zen.Queryable); ok {
			check(m.Name, q.QueryOut(), q.QueryArgs()...)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		expr, in := fuzz.NewGen(seed, fuzz.DefaultConfig()).Predicate()
		check(fmt.Sprintf("fuzz seed %d", seed), expr, in)
	}
}
