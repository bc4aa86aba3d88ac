package zen_test

import (
	"context"
	"math/rand"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/zen"
)

func batchModel(h zen.Value[Header]) zen.Value[uint16] {
	dst := zen.GetField[Header, uint32](h, "DstIP")
	sport := zen.GetField[Header, uint16](h, "SrcPort")
	dport := zen.GetField[Header, uint16](h, "DstPort")
	proto := zen.GetField[Header, uint8](h, "Protocol")
	natted := zen.If(zen.EqC(proto, uint8(6)), zen.AddC(sport, 1000), sport)
	return zen.If(zen.LtC(dst, uint32(1<<31)), natted, dport)
}

func randHeaders(seed int64, n int) []Header {
	rng := rand.New(rand.NewSource(seed))
	hs := make([]Header, n)
	for i := range hs {
		hs[i] = Header{
			DstIP:    rng.Uint32(),
			SrcIP:    rng.Uint32(),
			DstPort:  uint16(rng.Uint32()),
			SrcPort:  uint16(rng.Uint32()),
			Protocol: uint8(rng.Uint32()),
		}
	}
	return hs
}

// TestEvaluateBatchMatchesEvaluate: the bitsliced batch path must agree
// with scalar evaluation on every input, including a partial final batch.
func TestEvaluateBatchMatchesEvaluate(t *testing.T) {
	fn := zen.Func(batchModel)
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		inputs := randHeaders(int64(n)+1, n)
		got := fn.EvaluateBatch(inputs)
		if len(got) != n {
			t.Fatalf("n=%d: got %d results", n, len(got))
		}
		for i, h := range inputs {
			if want := fn.Evaluate(h); got[i] != want {
				t.Fatalf("n=%d input %d: batch %d, scalar %d", n, i, got[i], want)
			}
		}
	}
}

// TestEvaluateBatchListFallback: models outside the bitslice fragment
// (lists) must still answer correctly via the scalar fallback.
func TestEvaluateBatchListFallback(t *testing.T) {
	var st zen.Stats
	fn := zen.Func(func(xs zen.Value[[]uint8]) zen.Value[bool] {
		return zen.AnyMatch(xs, 3, func(x zen.Value[uint8]) zen.Value[bool] {
			return zen.EqC(x, uint8(7))
		})
	}).Use(zen.WithStats(&st))
	inputs := [][]uint8{{1, 2, 3}, {7}, {}, {5, 7, 9}, {8}}
	got := fn.EvaluateBatch(inputs)
	want := []bool{false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("input %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if snap := st.Snapshot(); snap.Bitslice.Fallbacks == 0 {
		t.Error("list model did not record a bitslice fallback")
	}
}

func TestEvaluateBatchCtxCancelled(t *testing.T) {
	fn := zen.Func(batchModel)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	if _, err := fn.EvaluateBatchCtx(ctx, randHeaders(3, 128)); err == nil {
		t.Fatal("cancelled context did not surface an error")
	}
	out, err := fn.EvaluateBatchCtx(context.Background(), randHeaders(4, 70))
	if err != nil || len(out) != 70 {
		t.Fatalf("live context: err=%v len=%d", err, len(out))
	}
}

func TestEvaluateBatchStats(t *testing.T) {
	var st zen.Stats
	fn := zen.Func(batchModel).Use(zen.WithStats(&st))
	fn.EvaluateBatch(randHeaders(5, 130))
	snap := st.Snapshot()
	if snap.Bitslice.Packets != 130 {
		t.Errorf("packets = %d, want 130", snap.Bitslice.Packets)
	}
	if snap.Bitslice.Batches != 3 {
		t.Errorf("batches = %d, want 3 (130 packets over 64 lanes)", snap.Bitslice.Batches)
	}
	if snap.Bitslice.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", snap.Bitslice.Fallbacks)
	}
	if _, ok := snap.Phase("run"); !ok {
		t.Error("no run phase recorded")
	}
}

// TestEvaluateBatchRaw drives the untyped batch engine the way the serve
// layer does: raw environments against a Queryable.
func TestEvaluateBatchRaw(t *testing.T) {
	fn := zen.Func(batchModel)
	inputs := randHeaders(6, 100)
	envs := make([]zen.RawModel, len(inputs))
	args := fn.QueryArgs()
	ht := zen.TypeOf[Header]()
	for i, h := range inputs {
		envs[i] = zen.RawModel{args[0].VarID: interp.Object(ht,
			interp.BV(core.BV(32, false), uint64(h.DstIP)),
			interp.BV(core.BV(32, false), uint64(h.SrcIP)),
			interp.BV(core.BV(16, false), uint64(h.DstPort)),
			interp.BV(core.BV(16, false), uint64(h.SrcPort)),
			interp.BV(core.BV(8, false), uint64(h.Protocol)),
		)}
	}
	vs, err := zen.EvaluateBatchRaw(context.Background(), fn, envs)
	if err != nil {
		t.Fatalf("EvaluateBatchRaw: %v", err)
	}
	for i, h := range inputs {
		want, werr := zen.EvaluateRaw(context.Background(), fn.QueryOut(), envs[i])
		if werr != nil {
			t.Fatalf("EvaluateRaw: %v", werr)
		}
		if !vs[i].Equal(want) {
			t.Fatalf("input %d (%+v): batch %s, scalar %s", i, h, vs[i], want)
		}
	}
}

func TestPackageLevelEvaluateBatch(t *testing.T) {
	out := zen.EvaluateBatch(batchModel, randHeaders(8, 10))
	fn := zen.Func(batchModel)
	for i, h := range randHeaders(8, 10) {
		if want := fn.Evaluate(h); out[i] != want {
			t.Fatalf("input %d: got %d, want %d", i, out[i], want)
		}
	}
}

// TestEvaluateBatchInputIndependentModels: models whose output reads no
// input share one result DAG (the constant) but not their argument
// variable, so each needs a plan of its own to bind its input.
func TestEvaluateBatchInputIndependentModels(t *testing.T) {
	for i := 0; i < 2; i++ {
		fn := zen.Func(func(zen.Value[uint8]) zen.Value[bool] { return zen.True() })
		if got := fn.EvaluateBatch([]uint8{1, 2}); len(got) != 2 || !got[0] || !got[1] {
			t.Fatalf("model %d: EvaluateBatch = %v, want [true true]", i, got)
		}
		if !fn.Compile()(3) {
			t.Fatalf("model %d: compiled(3) = false, want true", i)
		}
	}
}

// listInternalModel has list-free input and output but builds a list
// whose shape depends on the input and cases on it: the plan expands the
// list operators through sym's guarded unions, as the solvers do.
func listInternalModel(h zen.Value[Header]) zen.Value[uint8] {
	sport := zen.GetField[Header, uint16](h, "SrcPort")
	dport := zen.GetField[Header, uint16](h, "DstPort")
	proto := zen.GetField[Header, uint8](h, "Protocol")
	one := zen.Cons(dport, zen.NilList[uint16]())
	ports := zen.If(zen.EqC(proto, uint8(6)), zen.Cons(sport, one), one)
	ssh := zen.AnyMatch(ports, 3, func(p zen.Value[uint16]) zen.Value[bool] { return zen.EqC(p, uint16(22)) })
	return zen.If(ssh, zen.AddC(zen.Length(ports, 3), 10), zen.Length(ports, 3))
}

// TestEvaluateBatchListInternalModel: a model that uses lists only
// inside compiles to a plan and agrees with the interpreter lane for
// lane, in the batch and through Compile.
func TestEvaluateBatchListInternalModel(t *testing.T) {
	var st zen.Stats
	fn := zen.Func(listInternalModel).Use(zen.WithStats(&st))
	if !zen.BatchCompiles(fn) {
		t.Fatal("list-internal model does not compile to a plan")
	}
	inputs := randHeaders(5, 200)
	for i := range inputs {
		if i%3 == 0 {
			inputs[i].Protocol = 6
		}
		if i%4 == 0 {
			inputs[i].SrcPort = 22
		}
	}
	got := fn.EvaluateBatch(inputs)
	compiled := fn.Compile()
	for i, h := range inputs {
		want := fn.Evaluate(h)
		if got[i] != want {
			t.Fatalf("input %d: batch %d, interp %d", i, got[i], want)
		}
		if c := compiled(h); c != want {
			t.Fatalf("input %d: compiled %d, interp %d", i, c, want)
		}
	}
	if snap := st.Snapshot(); snap.Bitslice.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", snap.Bitslice.Fallbacks)
	}
}
