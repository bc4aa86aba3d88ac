package zen_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"zen-go/zen"
)

func TestGenerateInputsCoversBranches(t *testing.T) {
	// Three-way classifier: inputs for each branch must be generated.
	fn := zen.Func(func(x zen.Value[uint8]) zen.Value[uint8] {
		return zen.If(zen.LtC(x, uint8(10)), zen.Lift[uint8](0),
			zen.If(zen.LtC(x, uint8(100)), zen.Lift[uint8](1), zen.Lift[uint8](2)))
	})
	for _, be := range []zen.Backend{zen.BDD, zen.SAT} {
		inputs := fn.GenerateInputs(zen.GenOptions{Options: []zen.Option{zen.WithBackend(be)}})
		classes := map[uint8]bool{}
		for _, x := range inputs {
			classes[fn.Evaluate(x)] = true
		}
		if len(classes) != 3 {
			t.Fatalf("%v: inputs %v cover %d classes, want 3", be, inputs, len(classes))
		}
	}
}

func TestGenerateInputsSkipsInfeasiblePaths(t *testing.T) {
	// The second branch is unreachable (x<5 implies x<10): only 2 inputs.
	fn := zen.Func(func(x zen.Value[uint8]) zen.Value[uint8] {
		return zen.If(zen.LtC(x, uint8(10)), zen.Lift[uint8](0),
			zen.If(zen.LtC(x, uint8(5)), zen.Lift[uint8](1), zen.Lift[uint8](2)))
	})
	inputs := fn.GenerateInputs(zen.GenOptions{})
	if len(inputs) != 2 {
		t.Fatalf("got %d inputs, want 2 (one path infeasible): %v", len(inputs), inputs)
	}
	for _, x := range inputs {
		if fn.Evaluate(x) == 1 {
			t.Fatal("infeasible branch produced an input")
		}
	}
}

func TestGenerateInputsMaxPaths(t *testing.T) {
	fn := zen.Func(func(x zen.Value[uint8]) zen.Value[uint8] {
		out := zen.Lift[uint8](0)
		for i := 7; i >= 0; i-- {
			out = zen.If(zen.EqC(x, uint8(i)), zen.Lift(uint8(i)), out)
		}
		return out
	})
	if n := fn.PathConditions(0); n != 9 {
		t.Fatalf("paths = %d, want 9", n)
	}
	inputs := fn.GenerateInputs(zen.GenOptions{MaxPaths: 3})
	if len(inputs) > 3 {
		t.Fatalf("MaxPaths ignored: %d inputs", len(inputs))
	}
}

func TestCompileMatchesEvaluate(t *testing.T) {
	fn := zen.Func(func(h zen.Value[Header]) zen.Value[uint16] {
		dst := zen.GetField[Header, uint32](h, "DstIP")
		port := zen.GetField[Header, uint16](h, "DstPort")
		return zen.If(zen.EqC(zen.BitAndC(dst, uint32(0xFF000000)), uint32(0x0A000000)),
			zen.AddC(port, 1), zen.Lift[uint16](0))
	})
	compiled := fn.Compile()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		h := Header{
			DstIP:   rng.Uint32(),
			SrcIP:   rng.Uint32(),
			DstPort: uint16(rng.Intn(65536)),
		}
		if compiled(h) != fn.Evaluate(h) {
			t.Fatalf("compiled disagrees with Evaluate at %+v", h)
		}
	}
}

func TestCompileStructOutput(t *testing.T) {
	fn := zen.Func(func(h zen.Value[Header]) zen.Value[Header] {
		return zen.WithField(h, "Protocol", zen.Lift[uint8](99))
	})
	compiled := fn.Compile()
	got := compiled(Header{DstIP: 5, Protocol: 6})
	if got.Protocol != 99 || got.DstIP != 5 {
		t.Fatalf("compiled struct output = %+v", got)
	}
}

func TestCompileListModel(t *testing.T) {
	fn := zen.Func(func(l zen.Value[[]uint8]) zen.Value[uint8] {
		return zen.Fold(l, 8, zen.Lift[uint8](0),
			func(h zen.Value[uint8], acc zen.Value[uint8]) zen.Value[uint8] {
				return zen.Add(h, acc)
			})
	})
	compiled := fn.Compile()
	err := quick.Check(func(xs []uint8) bool {
		if len(xs) > 8 {
			xs = xs[:8]
		}
		return compiled(xs) == fn.Evaluate(xs)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompileOptionModel(t *testing.T) {
	fn := zen.Func(func(x zen.Value[uint8]) zen.Value[zen.Opt[uint8]] {
		return zen.If(zen.LtC(x, uint8(128)), zen.Some(x), zen.None[uint8]())
	})
	compiled := fn.Compile()
	for _, x := range []uint8{0, 127, 128, 255} {
		got, want := compiled(x), fn.Evaluate(x)
		if got.Ok != want.Ok || got.Val != want.Val {
			t.Fatalf("x=%d: compiled=%+v evaluate=%+v", x, got, want)
		}
	}
}

// compileAgrees checks a compiled model against Evaluate on inputs, and
// whether the model is inside the bitslice plan fragment.
func compileAgrees[I, O any](t *testing.T, fn *zen.Fn[I, O], inPlan bool, inputs []I) {
	t.Helper()
	if got := zen.BatchCompiles(fn); got != inPlan {
		t.Fatalf("BatchCompiles = %v, want %v", got, inPlan)
	}
	compiled := fn.Compile()
	for _, x := range inputs {
		if got, want := compiled(x), fn.Evaluate(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("input %v: compiled %v, Evaluate %v", x, got, want)
		}
	}
}

func randLists(seed int64, n, maxLen int) [][]uint8 {
	rng := rand.New(rand.NewSource(seed))
	ls := make([][]uint8, n)
	for i := range ls {
		ls[i] = make([]uint8, rng.Intn(maxLen+1))
		for j := range ls[i] {
			ls[i][j] = uint8(rng.Intn(256))
		}
	}
	return ls
}

// TestCompileAgreesWithEvaluate covers both evaluators behind Compile:
// list-free models run on the bitslice plan, list models on the
// interpreter.
func TestCompileAgreesWithEvaluate(t *testing.T) {
	hs := randHeaders(21, 200)
	t.Run("list-free", func(t *testing.T) {
		compileAgrees(t, zen.Func(func(h zen.Value[Header]) zen.Value[Header] {
			port := zen.GetField[Header, uint16](h, "DstPort")
			return zen.WithField(h, "DstPort", zen.If(zen.LtC(port, 1024), zen.AddC(port, 1), port))
		}), true, hs)
	})
	t.Run("list", func(t *testing.T) {
		compileAgrees(t, zen.Func(func(l zen.Value[[]uint8]) zen.Value[uint8] {
			return zen.Fold(l, 4, zen.Lift[uint8](0), func(h, acc zen.Value[uint8]) zen.Value[uint8] {
				return zen.If(zen.Lt(acc, h), h, acc)
			})
		}), false, randLists(21, 200, 6))
	})
	t.Run("fn2", func(t *testing.T) {
		f := zen.Func2(func(h zen.Value[Header], d zen.Value[uint32]) zen.Value[bool] {
			return zen.Eq(zen.GetField[Header, uint32](h, "DstIP"), zen.BitAnd(d, zen.Lift(uint32(0xFFFF0000))))
		})
		if !zen.BatchCompiles(f) {
			t.Fatal("Fn2 model is outside the plan fragment")
		}
		compiled := f.Compile()
		for i, h := range hs {
			d := h.DstIP
			if i%2 == 1 {
				d = h.SrcIP
			}
			if got, want := compiled(h, d), f.Evaluate(h, d); got != want {
				t.Fatalf("input %+v, %d: compiled %v, Evaluate %v", h, d, got, want)
			}
		}
	})
	t.Run("input-independent", func(t *testing.T) {
		for i := 0; i < 2; i++ {
			compileAgrees(t, zen.Func(func(zen.Value[Header]) zen.Value[uint8] { return zen.Lift[uint8](7) }), true, hs[:4])
		}
	})
}

// TestCompileConcurrentCalls calls one compiled function from several
// goroutines, on the plan and on the interpreter (run under -race).
func TestCompileConcurrentCalls(t *testing.T) {
	acl, sum := zen.Func(batchModel), zen.Func(func(l zen.Value[[]uint8]) zen.Value[uint8] {
		return zen.Fold(l, 4, zen.Lift[uint8](0), func(h, acc zen.Value[uint8]) zen.Value[uint8] { return zen.Add(h, acc) })
	})
	aclC, sumC := acl.Compile(), sum.Compile()
	hs, ls := randHeaders(31, 400), randLists(31, 400, 6)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(hs); i += 4 {
				if got, want := aclC(hs[i]), acl.Evaluate(hs[i]); got != want {
					t.Errorf("goroutine %d, header %+v: compiled %d, Evaluate %d", g, hs[i], got, want)
					return
				}
				if got, want := sumC(ls[i]), sum.Evaluate(ls[i]); got != want {
					t.Errorf("goroutine %d, list %v: compiled %d, Evaluate %d", g, ls[i], got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestModelStats(t *testing.T) {
	fn := zen.Func(func(h zen.Value[Header]) zen.Value[bool] {
		dst := zen.GetField[Header, uint32](h, "DstIP")
		return zen.EqC(zen.BitAndC(dst, 0xFF000000), uint32(0x0A000000))
	})
	st := fn.Stats(0)
	if st.Bits != 104 {
		t.Fatalf("a Header input has 104 bits, got %d", st.Bits)
	}
	// The masked equality compares 8 significant bits: 7 ANDs to fold
	// them (the masked-out bits fold to constants).
	if st.Gates != 7 {
		t.Fatalf("gates = %d, want 7", st.Gates)
	}
	if st.Nodes == 0 || st.Depth == 0 || st.Vars != 1 {
		t.Fatalf("DAG stats wrong: %+v", st)
	}
	// A larger model costs more gates.
	big := zen.Func(func(h zen.Value[Header]) zen.Value[bool] {
		a := zen.GetField[Header, uint32](h, "DstIP")
		b := zen.GetField[Header, uint32](h, "SrcIP")
		return zen.Eq(a, b)
	})
	if bs := big.Stats(0); bs.Gates <= st.Gates {
		t.Fatalf("full 32-bit equality (%d gates) should cost more than %d", bs.Gates, st.Gates)
	}
}
