package zen_test

import (
	"strings"
	"testing"

	"zen-go/zen"
)

// statsFn builds the small branching model exercised by every stats test:
// f(x) = x+1 when x < 10, else x.
func statsFn() *zen.Fn[uint8, uint8] {
	return zen.Func(func(x zen.Value[uint8]) zen.Value[uint8] {
		return zen.If(zen.LtC(x, uint8(10)), zen.Add(x, zen.Lift[uint8](1)), x)
	})
}

// TestStatsBothBackends runs the same model under Find on both backends with
// one shared Stats, then checks phase-labeled timings and the counters that
// are specific to each backend.
func TestStatsBothBackends(t *testing.T) {
	var st zen.Stats
	fn := statsFn()

	pred := func(in, out zen.Value[uint8]) zen.Value[bool] {
		return zen.EqC(out, uint8(7))
	}
	if _, ok := fn.Find(pred, zen.WithBackend(zen.BDD), zen.WithStats(&st)); !ok {
		t.Fatal("bdd find failed")
	}
	if _, ok := fn.Find(pred, zen.WithBackend(zen.SAT), zen.WithStats(&st)); !ok {
		t.Fatal("sat find failed")
	}

	s := st.Snapshot()
	if s.Analyses != 2 {
		t.Fatalf("Analyses = %d, want 2", s.Analyses)
	}
	if s.AnalysesBy["bdd"] != 1 || s.AnalysesBy["sat"] != 1 {
		t.Fatalf("AnalysesBy = %v, want bdd:1 sat:1", s.AnalysesBy)
	}
	if s.Solves != 2 || s.Sat != 2 {
		t.Fatalf("Solves/Sat = %d/%d, want 2/2", s.Solves, s.Sat)
	}
	// Phase-labeled timings: each phase ran once per backend and took > 0.
	for _, name := range []string{"build", "symeval", "solve", "decode"} {
		p, ok := s.Phase(name)
		if !ok {
			t.Fatalf("phase %q missing (have %v)", name, s.Phases)
		}
		if p.Count != 2 {
			t.Fatalf("phase %q count = %d, want 2", name, p.Count)
		}
		if p.Total <= 0 {
			t.Fatalf("phase %q total = %v, want > 0", name, p.Total)
		}
	}
	// DAG measured.
	if s.DAG.Nodes == 0 || s.DAG.Vars == 0 {
		t.Fatalf("DAG not measured: %+v", s.DAG)
	}
	// BDD backend counters.
	if s.BDD.Nodes == 0 {
		t.Fatalf("BDD.Nodes = 0, want > 0 (%+v)", s.BDD)
	}
	if s.BDD.CacheHits+s.BDD.CacheMisses == 0 {
		t.Fatalf("BDD cache counters empty: %+v", s.BDD)
	}
	// SAT backend counters.
	if s.SAT.Vars == 0 || s.SAT.Clauses == 0 {
		t.Fatalf("SAT vars/clauses empty: %+v", s.SAT)
	}
	if s.SAT.Propagations == 0 {
		t.Fatalf("SAT.Propagations = 0, want > 0 (%+v)", s.SAT)
	}
}

// TestStatsDAGAgreesWithMeasure checks that the DAG numbers recorded in
// Stats are exactly core.Measure's numbers for the analyzed DAG: with a
// predicate that returns the model output directly, the analyzed DAG is
// fn.Out itself and must agree with Fn.Stats.
func TestStatsDAGAgreesWithMeasure(t *testing.T) {
	fn := zen.Func(func(x zen.Value[uint8]) zen.Value[bool] {
		return zen.LtC(x, uint8(100))
	})
	want := fn.Stats(3) // ModelStats from core.Measure, no solving

	var st zen.Stats
	if _, ok := fn.Find(func(in zen.Value[uint8], out zen.Value[bool]) zen.Value[bool] {
		return out
	}, zen.WithStats(&st)); !ok {
		t.Fatal("find failed")
	}
	s := st.Snapshot()
	if s.DAG.Nodes != int64(want.Nodes) || s.DAG.Depth != int64(want.Depth) || s.DAG.Vars != int64(want.Vars) {
		t.Fatalf("stats DAG = %+v, want nodes=%d depth=%d vars=%d",
			s.DAG, want.Nodes, want.Depth, want.Vars)
	}
}

// TestStatsTracerSpans checks the tracing hook: one span per analysis, one
// event per phase, in order.
func TestStatsTracerSpans(t *testing.T) {
	var tr zen.CollectTracer
	fn := statsFn()
	if _, ok := fn.Find(func(in, out zen.Value[uint8]) zen.Value[bool] {
		return zen.EqC(out, uint8(7))
	}, zen.WithTracer(&tr), zen.WithBackend(zen.SAT)); !ok {
		t.Fatal("find failed")
	}
	evs := tr.Events()
	var names []string
	for _, e := range evs {
		if e.Span != "find/sat" {
			t.Fatalf("event on span %q, want find/sat (%+v)", e.Span, e)
		}
		if strings.HasPrefix(e.Name, "attr:") {
			continue // counter attributes attached at span end; not under test
		}
		names = append(names, e.Name)
	}
	want := []string{"start", "build", "symeval", "solve", "decode", "end"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("trace events = %v, want %v", names, want)
	}
}

// TestStatsEvaluateViaUse checks that Use-attached options instrument the
// otherwise option-less Evaluate and Compile paths.
func TestStatsEvaluateViaUse(t *testing.T) {
	var st zen.Stats
	fn := statsFn().Use(zen.WithStats(&st))
	if got := fn.Evaluate(4); got != 5 {
		t.Fatalf("Evaluate(4) = %d, want 5", got)
	}
	compiled := fn.Compile()
	if got := compiled(4); got != 5 {
		t.Fatalf("compiled(4) = %d, want 5", got)
	}
	s := st.Snapshot()
	if s.AnalysesBy["interp"] != 1 {
		t.Fatalf("interp analyses = %d, want 1 (%v)", s.AnalysesBy["interp"], s.AnalysesBy)
	}
	if s.AnalysesBy["compile"] != 1 || s.Bitslice.Plans != 1 {
		t.Fatalf("compile not recorded: %v %+v", s.AnalysesBy, s.Bitslice)
	}
	if s.Bitslice.PlanOps == 0 || s.Bitslice.PlanRegs == 0 {
		t.Fatalf("plan size counters empty: %+v", s.Bitslice)
	}
}

// TestStatsGenerateInputs checks telemetry on the test-generation path.
func TestStatsGenerateInputs(t *testing.T) {
	var st zen.Stats
	fn := statsFn()
	inputs := fn.GenerateInputs(zen.GenOptions{Options: []zen.Option{zen.WithStats(&st)}})
	if len(inputs) == 0 {
		t.Fatal("no inputs generated")
	}
	s := st.Snapshot()
	if s.AnalysesBy["bdd"] != 1 {
		t.Fatalf("AnalysesBy = %v, want bdd:1", s.AnalysesBy)
	}
	if p, ok := s.Phase("paths"); !ok || p.Count != 1 {
		t.Fatalf("paths phase missing or wrong count: %v", s.Phases)
	}
	if s.Solves < int64(len(inputs)) {
		t.Fatalf("Solves = %d, want >= %d", s.Solves, len(inputs))
	}
}

// TestStatsStateSetWorld checks telemetry on state-set transformers.
func TestStatsStateSetWorld(t *testing.T) {
	var st zen.Stats
	w := zen.NewWorld(zen.WithStats(&st))
	fn := statsFn()
	tr := zen.NewTransformer(w, fn)
	full := zen.FullSet[uint8](w)
	img := tr.Forward(full)
	_ = tr.Reverse(img)

	s := st.Snapshot()
	if s.StateSet.Transformers != 1 {
		t.Fatalf("Transformers = %d, want 1", s.StateSet.Transformers)
	}
	if s.StateSet.Forwards != 1 || s.StateSet.Reverses != 1 {
		t.Fatalf("Forwards/Reverses = %d/%d, want 1/1",
			s.StateSet.Forwards, s.StateSet.Reverses)
	}
	if s.BDD.Nodes == 0 {
		t.Fatalf("no BDD nodes harvested from world: %+v", s.BDD)
	}
}

// TestStatsProblemSolve checks telemetry on constraint problems, including
// NextModel enumeration counting extra solves.
func TestStatsProblemSolve(t *testing.T) {
	var st zen.Stats
	p := zen.NewProblem(zen.WithBackend(zen.SAT), zen.WithStats(&st))
	x := zen.ProblemVar[uint8](p, "x")
	p.Require(zen.LtC(x, uint8(2)))
	if !p.Solve() {
		t.Fatal("solve failed")
	}
	for p.NextModel() {
	}
	s := st.Snapshot()
	// 1 solve + 2 NextModel calls (one sat, one unsat).
	if s.Solves != 3 || s.Sat != 2 {
		t.Fatalf("Solves/Sat = %d/%d, want 3/2", s.Solves, s.Sat)
	}
	if s.AnalysesBy["sat"] != 3 {
		t.Fatalf("AnalysesBy = %v, want sat:3", s.AnalysesBy)
	}
	if s.SAT.Clauses == 0 {
		t.Fatalf("SAT counters empty: %+v", s.SAT)
	}
}

// TestStatsStringReport checks the human-readable report includes the
// backend sections that were active.
func TestStatsStringReport(t *testing.T) {
	var st zen.Stats
	fn := statsFn()
	pred := func(in, out zen.Value[uint8]) zen.Value[bool] { return zen.EqC(out, uint8(7)) }
	fn.Find(pred, zen.WithStats(&st))
	fn.Find(pred, zen.WithBackend(zen.SAT), zen.WithStats(&st))
	rep := st.String()
	for _, want := range []string{"2 analyses", "bdd 1", "sat 1", "phases:", "dag:", "bdd:", "sat:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestStatsGlobalAggregate checks that analyses feed the process-wide
// aggregate even without an attached Stats.
func TestStatsGlobalAggregate(t *testing.T) {
	before := zen.GlobalStats().Snapshot()
	fn := statsFn()
	if _, ok := fn.Find(func(in, out zen.Value[uint8]) zen.Value[bool] {
		return zen.EqC(out, uint8(7))
	}); !ok {
		t.Fatal("find failed")
	}
	after := zen.GlobalStats().Snapshot()
	if after.Analyses <= before.Analyses {
		t.Fatalf("global Analyses did not grow: %d -> %d", before.Analyses, after.Analyses)
	}
	if after.Solves <= before.Solves {
		t.Fatalf("global Solves did not grow: %d -> %d", before.Solves, after.Solves)
	}
}
