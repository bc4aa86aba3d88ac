package bitslice

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/interp"
)

func randValue(rng *rand.Rand, t *core.Type) *interp.Value {
	switch t.Kind {
	case core.KindBool:
		return interp.Bool(rng.Intn(2) == 1)
	case core.KindBV:
		return interp.BV(t, rng.Uint64())
	case core.KindObject:
		fields := make([]*interp.Value, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = randValue(rng, f.Type)
		}
		return interp.Object(t, fields...)
	}
	panic("randValue: unsupported kind " + t.String())
}

// checkAgainstInterp compiles root, runs batches of random inputs through
// the plan, and requires every lane to match the scalar interpreter.
func checkAgainstInterp(t *testing.T, root *core.Node, vars []*core.Node, seed int64) {
	t.Helper()
	plan, err := Compile(root, vars...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	regs := plan.NewRegs()
	for batch := 0; batch < 3; batch++ {
		inputs := make([][]*interp.Value, Lanes)
		for lane := 0; lane < Lanes; lane++ {
			inputs[lane] = make([]*interp.Value, len(vars))
			for vi, v := range vars {
				val := randValue(rng, v.Type)
				inputs[lane][vi] = val
				if err := plan.Bind(regs, v.VarID, lane, val); err != nil {
					t.Fatalf("Bind: %v", err)
				}
			}
		}
		plan.Run(regs)
		for lane := 0; lane < Lanes; lane++ {
			env := interp.Env{}
			for vi, v := range vars {
				env[v.VarID] = inputs[lane][vi]
			}
			want := interp.Eval(root, env)
			got := plan.Lane(regs, lane)
			if !got.Equal(want) {
				t.Fatalf("batch %d lane %d: bitslice %s, interp %s", batch, lane, got, want)
			}
		}
	}
}

// TestIdentityRoundTripAllWidths pushes every bitvector width 1..64
// through an identity plan: transpose then untranspose must be lossless.
func TestIdentityRoundTripAllWidths(t *testing.T) {
	for w := 1; w <= 64; w++ {
		w := w
		t.Run(fmt.Sprintf("bv%d", w), func(t *testing.T) {
			b := core.NewBuilder()
			x := b.Var(core.BV(w, false), "x")
			checkAgainstInterp(t, x, []*core.Node{x}, int64(w))
		})
	}
	t.Run("bool", func(t *testing.T) {
		b := core.NewBuilder()
		x := b.Var(core.Bool(), "x")
		checkAgainstInterp(t, x, []*core.Node{x}, 1)
	})
}

// headerType mirrors nets/pkt.Header: the field widths the serve path
// transposes on every request.
func headerType() *core.Type {
	return core.Object("Header",
		core.Field{Name: "DstIP", Type: core.BV(32, false)},
		core.Field{Name: "SrcIP", Type: core.BV(32, false)},
		core.Field{Name: "DstPort", Type: core.BV(16, false)},
		core.Field{Name: "SrcPort", Type: core.BV(16, false)},
		core.Field{Name: "Protocol", Type: core.BV(8, false)},
	)
}

func TestHeaderRoundTrip(t *testing.T) {
	b := core.NewBuilder()
	h := b.Var(headerType(), "h")
	checkAgainstInterp(t, h, []*core.Node{h}, 7)
}

func TestArithmeticOps(t *testing.T) {
	b := core.NewBuilder()
	for _, tc := range []struct {
		name  string
		width int
	}{{"bv8", 8}, {"bv16", 16}, {"bv32", 32}, {"bv64", 64}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ty := core.BV(tc.width, false)
			x := b.Var(ty, "x")
			y := b.Var(ty, "y")
			vars := []*core.Node{x, y}
			checkAgainstInterp(t, b.Add(x, y), vars, 11)
			checkAgainstInterp(t, b.Sub(x, y), vars, 12)
			checkAgainstInterp(t, b.Mul(x, y), vars, 13)
			checkAgainstInterp(t, b.Eq(x, y), vars, 14)
			checkAgainstInterp(t, b.Lt(x, y), vars, 15)
			checkAgainstInterp(t, b.BXor(b.BAnd(x, y), b.BOr(x, b.BNot(y))), vars, 16)
			checkAgainstInterp(t, b.Shl(x, tc.width/2), vars, 17)
			checkAgainstInterp(t, b.Shr(x, tc.width/3+1), vars, 18)
		})
	}
}

func TestSignedComparison(t *testing.T) {
	b := core.NewBuilder()
	ty := core.BV(8, true)
	x := b.Var(ty, "x")
	y := b.Var(ty, "y")
	checkAgainstInterp(t, b.Lt(x, y), []*core.Node{x, y}, 21)
}

func TestCast(t *testing.T) {
	b := core.NewBuilder()
	xu := b.Var(core.BV(8, false), "xu")
	xs := b.Var(core.BV(8, true), "xs")
	checkAgainstInterp(t, b.Cast(xu, core.BV(16, false)), []*core.Node{xu}, 31) // zero-extend
	checkAgainstInterp(t, b.Cast(xs, core.BV(16, true)), []*core.Node{xs}, 32)  // sign-extend
	checkAgainstInterp(t, b.Cast(xu, core.BV(3, false)), []*core.Node{xu}, 33)  // truncate
}

// TestNestedIf exercises lane-masked selection: three levels of If whose
// conditions split the lanes differently, over both bool and bitvector
// branches.
func TestNestedIf(t *testing.T) {
	b := core.NewBuilder()
	h := b.Var(headerType(), "h")
	dst := b.GetField(h, 0)
	sport := b.GetField(h, 3)
	proto := b.GetField(h, 4)
	inner := b.If(b.Lt(proto, b.BVConst(core.BV(8, false), 17)),
		b.Add(sport, b.BVConst(core.BV(16, false), 1)),
		b.Sub(sport, b.BVConst(core.BV(16, false), 1)))
	mid := b.If(b.Eq(proto, b.BVConst(core.BV(8, false), 6)),
		inner,
		b.BVConst(core.BV(16, false), 443))
	root := b.If(b.Lt(dst, b.BVConst(core.BV(32, false), 1<<31)),
		mid,
		b.BXor(mid, b.BVConst(core.BV(16, false), 0xffff)))
	checkAgainstInterp(t, root, []*core.Node{h}, 41)
}

func TestObjectOps(t *testing.T) {
	b := core.NewBuilder()
	ht := headerType()
	h := b.Var(ht, "h")
	g := b.Var(ht, "g")
	// Swap a field, compare whole objects, rebuild one.
	swapped := b.WithField(h, 2, b.GetField(g, 2))
	checkAgainstInterp(t, swapped, []*core.Node{h, g}, 51)
	checkAgainstInterp(t, b.Eq(swapped, g), []*core.Node{h, g}, 52)
	rebuilt := b.Create(ht,
		b.GetField(g, 0), b.GetField(h, 1), b.GetField(g, 2),
		b.GetField(h, 3), b.GetField(g, 4))
	checkAgainstInterp(t, rebuilt, []*core.Node{h, g}, 53)
}

// TestPartialBatch reuses one register file across batches of shrinking
// size: the stale lanes left over from earlier batches must not affect
// the lanes that were re-bound.
func TestPartialBatch(t *testing.T) {
	b := core.NewBuilder()
	ty := core.BV(16, false)
	x := b.Var(ty, "x")
	y := b.Var(ty, "y")
	root := b.If(b.Lt(x, y), b.Add(x, y), b.Sub(x, y))
	plan, err := Compile(root, x, y)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rng := rand.New(rand.NewSource(61))
	regs := plan.NewRegs()
	for _, n := range []int{64, 17, 1, 63} {
		xs := make([]*interp.Value, n)
		ys := make([]*interp.Value, n)
		for i := 0; i < n; i++ {
			xs[i] = randValue(rng, ty)
			ys[i] = randValue(rng, ty)
		}
		if err := plan.BindLanes(regs, x.VarID, xs); err != nil {
			t.Fatalf("BindLanes: %v", err)
		}
		if err := plan.BindLanes(regs, y.VarID, ys); err != nil {
			t.Fatalf("BindLanes: %v", err)
		}
		plan.Run(regs)
		for i := 0; i < n; i++ {
			want := interp.Eval(root, interp.Env{x.VarID: xs[i], y.VarID: ys[i]})
			if got := plan.Lane(regs, i); !got.Equal(want) {
				t.Fatalf("partial batch n=%d lane %d: got %s, want %s", n, i, got, want)
			}
		}
	}
}

func TestConstantBroadcast(t *testing.T) {
	b := core.NewBuilder()
	x := b.Var(core.BV(8, false), "x")
	root := b.Add(b.BAnd(x, b.BVConst(core.BV(8, false), 0x0f)), b.BVConst(core.BV(8, false), 0xa0))
	checkAgainstInterp(t, root, []*core.Node{x}, 71)
}

func TestListsUnsupported(t *testing.T) {
	b := core.NewBuilder()
	lt := core.List(core.BV(8, false))
	l := b.Var(lt, "l")
	root := b.ListCase(l, b.BoolConst(false), func(head, tail *core.Node) *core.Node {
		return b.Eq(head, b.BVConst(core.BV(8, false), 1))
	})
	_, err := Compile(root, l)
	if err == nil {
		t.Fatal("Compile of list model succeeded, want UnsupportedError")
	}
	if !IsUnsupported(err) {
		t.Fatalf("error %v is not an UnsupportedError", err)
	}
}

// TestListInsideModel: list operators inside a model with list-free
// input and result compile (sym expands them into guarded unions) and
// agree with the interpreter.
func TestListInsideModel(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	one := b.ListCons(x, b.ListNil(core.List(u8)))
	l := b.If(b.Lt(x, b.BVConst(u8, 100)), b.ListCons(b.Add(x, x), one), one)
	root := b.ListCase(l, b.BVConst(u8, 0), func(head, tail *core.Node) *core.Node {
		return b.Add(head, b.ListCase(tail, b.BVConst(u8, 7), func(h2, _ *core.Node) *core.Node { return h2 }))
	})
	checkAgainstInterp(t, root, []*core.Node{x}, 81)
}

// TestAdaptShapeMismatchUnsupported: an Adapt whose result type has a
// different shape from its operand cannot be read back by the codec.
func TestAdaptShapeMismatchUnsupported(t *testing.T) {
	b := core.NewBuilder()
	u8 := core.BV(8, false)
	x := b.Var(u8, "x")
	root := b.Adapt(core.Object("Wrapped", core.Field{Name: "V", Type: u8}), x)
	if _, err := Compile(root, x); !IsUnsupported(err) {
		t.Fatalf("Compile = %v, want an UnsupportedError", err)
	}
}

func TestUnboundVariable(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Compile with unbound variable did not panic")
		}
	}()
	b := core.NewBuilder()
	x := b.Var(core.BV(8, false), "x")
	y := b.Var(core.BV(8, false), "y")
	Compile(b.Add(x, y), x) // y never declared
}

func TestBindErrors(t *testing.T) {
	b := core.NewBuilder()
	x := b.Var(core.BV(8, false), "x")
	plan, err := Compile(x, x)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	regs := plan.NewRegs()
	if err := plan.Bind(regs, x.VarID, 64, interp.BV(core.BV(8, false), 1)); err == nil {
		t.Error("lane out of range accepted")
	}
	if err := plan.Bind(regs, 9999, 0, interp.BV(core.BV(8, false), 1)); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := plan.Bind(regs, x.VarID, 0, interp.Bool(true)); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestConcurrentEvaluation runs one shared plan from many goroutines,
// each with its own pooled register file — the shape zen.EvaluateBatch
// and the serve stream path use. Meaningful under -race.
func TestConcurrentEvaluation(t *testing.T) {
	b := core.NewBuilder()
	ty := core.BV(32, false)
	x := b.Var(ty, "x")
	y := b.Var(ty, "y")
	root := b.If(b.Lt(x, y), b.Sub(y, x), b.Sub(x, y))
	plan, err := Compile(root, x, y)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 50; iter++ {
				regs := plan.AcquireRegs()
				xs := make([]*interp.Value, Lanes)
				ys := make([]*interp.Value, Lanes)
				for i := range xs {
					xs[i] = randValue(rng, ty)
					ys[i] = randValue(rng, ty)
				}
				plan.BindLanes(regs, x.VarID, xs)
				plan.BindLanes(regs, y.VarID, ys)
				plan.Run(regs)
				for i := range xs {
					want := interp.Eval(root, interp.Env{x.VarID: xs[i], y.VarID: ys[i]})
					if got := plan.Lane(regs, i); !got.Equal(want) {
						t.Errorf("goroutine %d lane %d: got %s, want %s", seed, i, got, want)
						break
					}
				}
				plan.ReleaseRegs(regs)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestStructuralOpsAreFree pins the zero-instruction guarantee for
// shifts, projections, and casts on variables.
func TestStructuralOpsAreFree(t *testing.T) {
	b := core.NewBuilder()
	h := b.Var(headerType(), "h")
	root := b.Shr(b.GetField(h, 0), 8)
	plan, err := Compile(root, h)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if plan.NumOps() != 0 {
		t.Errorf("shift+projection plan has %d instructions, want 0", plan.NumOps())
	}
}

// TestAndOfNotIsOneAndNot: a conjunction with a complemented operand
// compiles to one andnot, and the complement it replaced is dropped.
func TestAndOfNotIsOneAndNot(t *testing.T) {
	b := core.NewBuilder()
	x, y := b.Var(core.Bool(), "x"), b.Var(core.Bool(), "y")
	for _, root := range []*core.Node{b.And(x, b.Not(y)), b.And(b.Not(x), y)} {
		checkAgainstInterp(t, root, []*core.Node{x, y}, 1)
		plan, err := Compile(root, x, y)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if plan.NumOps() != 1 {
			t.Errorf("x & !y plan has %d instructions, want 1", plan.NumOps())
		}
	}
}
