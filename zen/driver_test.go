package zen_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"zen-go/internal/core"
	"zen-go/zen"
)

// driverBackends is every way a query can be solved: each single backend,
// the portfolio race, and the auto pick after presolve.
var driverBackends = []struct {
	name string
	opts []zen.Option
}{
	{"bdd", []zen.Option{zen.WithBackend(zen.BDD)}},
	{"sat", []zen.Option{zen.WithBackend(zen.SAT)}},
	{"portfolio", []zen.Option{zen.WithPortfolio(), zen.WithPortfolioWorkers(2)}},
	{"auto", []zen.Option{zen.WithAutoBackend(), zen.WithPresolve()}},
}

// recorded is the telemetry of the calls under test: a private Stats and
// tracer, so every check reads only what those calls recorded.
type recorded struct {
	st zen.Stats
	tr zen.CollectTracer
}

func (r *recorded) opts(base []zen.Option) []zen.Option {
	return append(append([]zen.Option(nil), base...), zen.WithStats(&r.st), zen.WithTracer(&r.tr))
}

// spans returns the analysis names of the spans opened so far, in order
// (the span name is "<analysis>/<backend>").
func (r *recorded) spans() []string {
	var names []string
	for _, e := range r.tr.Events() {
		if e.Name == "start" {
			names = append(names, strings.SplitN(e.Span, "/", 2)[0])
		}
	}
	return names
}

// expect checks the analyses and solver counts recorded so far.
func (r *recorded) expect(t *testing.T, label string, analyses []string, solves, sat int64) {
	t.Helper()
	if got := r.spans(); strings.Join(got, ",") != strings.Join(analyses, ",") {
		t.Errorf("%s: analyses %v, want %v", label, got, analyses)
	}
	s := r.st.Snapshot()
	if s.Analyses != int64(len(analyses)) || s.Solves != solves || s.Sat != sat {
		t.Errorf("%s: analyses/solves/sat = %d/%d/%d, want %d/%d/%d",
			label, s.Analyses, s.Solves, s.Sat, len(analyses), solves, sat)
	}
}

// TestDriverParity runs every symbolic entry point of the package on every
// backend over two small fixed models. Witnesses must satisfy their
// predicate under the interpreter, verdicts and model counts must agree
// across backends, and each call must record its analysis name and the
// solves it ran.
func TestDriverParity(t *testing.T) {
	// f(x) = x+1 when x < 10, else x. out < 5 holds for x in 0..3; out == 0
	// never holds.
	fn := statsFn()
	small := func(_, out zen.Value[uint8]) zen.Value[bool] { return zen.LtC(out, uint8(5)) }
	never := func(_, out zen.Value[uint8]) zen.Value[bool] { return zen.EqC(out, uint8(0)) }
	holds := func(pred func(zen.Value[uint8], zen.Value[uint8]) zen.Value[bool], x uint8) bool {
		return zen.Func(func(in zen.Value[uint8]) zen.Value[bool] { return pred(in, fn.Apply(in)) }).Evaluate(x)
	}
	// g(a, b) = a + b. out == 7 with a < 3 holds for exactly three pairs.
	fn2 := zen.Func2(func(a, b zen.Value[uint8]) zen.Value[uint8] { return zen.Add(a, b) })
	seven := func(a, _, out zen.Value[uint8]) zen.Value[bool] {
		return zen.And(zen.EqC(out, uint8(7)), zen.LtC(a, uint8(3)))
	}
	holds2 := func(a, b uint8) bool {
		return zen.Func2(func(x, y zen.Value[uint8]) zen.Value[bool] { return seven(x, y, fn2.Apply(x, y)) }).Evaluate(a, b)
	}

	verdicts := map[string][]any{}
	for _, be := range driverBackends {
		var got []any
		note := func(vs ...any) { got = append(got, vs...) }

		var r recorded
		w, ok := fn.Find(small, r.opts(be.opts)...)
		if ok && !holds(small, w) {
			t.Errorf("%s: Find witness %d violates the predicate", be.name, w)
		}
		r.expect(t, be.name+" Find", []string{"find"}, 1, 1)
		note(ok)

		r = recorded{}
		_, ok = fn.Find(never, r.opts(be.opts)...)
		r.expect(t, be.name+" Find unsat", []string{"find"}, 1, 0)
		note(ok)

		r = recorded{}
		valid, _ := fn.Verify(func(_, out zen.Value[uint8]) zen.Value[bool] { return zen.Not(zen.EqC(out, uint8(0))) }, r.opts(be.opts)...)
		r.expect(t, be.name+" Verify", []string{"find"}, 1, 0)
		note(valid)

		r = recorded{}
		w, ok, err := fn.FindCtx(context.Background(), small, r.opts(be.opts)...)
		if err != nil || (ok && !holds(small, w)) {
			t.Errorf("%s: FindCtx = %d, %v, %v", be.name, w, ok, err)
		}
		r.expect(t, be.name+" FindCtx", []string{"find"}, 1, 1)
		note(ok)

		r = recorded{}
		ws := fn.FindAll(small, 2, r.opts(be.opts)...)
		r.expect(t, be.name+" FindAll(2)", []string{"findall"}, 2, 2)
		note(len(ws))

		r = recorded{}
		ws, err = fn.FindAllCtx(context.Background(), small, 10, r.opts(be.opts)...)
		if err != nil {
			t.Errorf("%s: FindAllCtx: %v", be.name, err)
		}
		seen := map[uint8]bool{}
		for _, w := range ws {
			if !holds(small, w) || seen[w] {
				t.Errorf("%s: FindAll witness %d repeated or violates the predicate (%v)", be.name, w, ws)
			}
			seen[w] = true
		}
		r.expect(t, be.name+" FindAll(10)", []string{"findall"}, 5, 4)
		note(len(ws))

		r = recorded{}
		a, b, ok := fn2.Find(seven, r.opts(be.opts)...)
		if ok && !holds2(a, b) {
			t.Errorf("%s: Fn2.Find witness (%d, %d) violates the predicate", be.name, a, b)
		}
		r.expect(t, be.name+" Fn2.Find", []string{"find2"}, 1, 1)
		note(ok)

		r = recorded{}
		valid, a, b = fn2.Verify(func(x, y, out zen.Value[uint8]) zen.Value[bool] {
			return zen.Not(seven(x, y, out))
		}, r.opts(be.opts)...)
		if valid || !holds2(a, b) {
			t.Errorf("%s: Fn2.Verify = %v with counterexample (%d, %d)", be.name, valid, a, b)
		}
		r.expect(t, be.name+" Fn2.Verify", []string{"find2"}, 1, 1)
		note(valid)

		cond := small(fn.Arg(), fn.Out()).Raw()
		r = recorded{}
		m, ok, err := zen.FindRaw(context.Background(), cond, fn.QueryArgs(), r.opts(be.opts)...)
		if err != nil || !ok || !rawHolds(t, cond, m) {
			t.Errorf("%s: FindRaw = %v, %v, %v", be.name, m, ok, err)
		}
		r.expect(t, be.name+" FindRaw", []string{"find"}, 1, 1)
		note(ok)

		a2, b2 := zen.Symbolic[uint8]("a"), zen.Symbolic[uint8]("b")
		pred2 := seven(a2, b2, fn2.Apply(a2, b2)).Raw()
		args2 := []*core.Node{a2.Raw(), b2.Raw()}
		r = recorded{}
		ms, err := zen.FindAllRaw(context.Background(), pred2, args2, 10, r.opts(be.opts)...)
		if err != nil {
			t.Errorf("%s: FindAllRaw: %v", be.name, err)
		}
		for _, m := range ms {
			if !rawHolds(t, pred2, m) {
				t.Errorf("%s: FindAllRaw model %v violates the predicate", be.name, m)
			}
		}
		r.expect(t, be.name+" FindAllRaw", []string{"findall"}, 4, 3)
		note(len(ms))

		r = recorded{}
		p := zen.NewProblem(r.opts(be.opts)...)
		x := zen.ProblemVar[uint8](p, "x")
		y := zen.ProblemVar[uint8](p, "y")
		sum := zen.And(zen.Eq(zen.Add(x, y), zen.Lift[uint8](4)), zen.LtC(x, uint8(3)))
		p.Require(sum)
		models := 0
		for ok := p.Solve(); ok; ok = p.NextModel() {
			if !zen.EvalUnderModel(p, sum) {
				t.Errorf("%s: Problem model x=%d y=%d violates the constraints", be.name, zen.Get(p, x), zen.Get(p, y))
			}
			models++
		}
		r.expect(t, be.name+" Problem", []string{"problem", "nextmodel", "nextmodel", "nextmodel"}, 4, 3)
		note(models)

		r = recorded{}
		p = zen.NewProblem(r.opts(be.opts)...)
		x = zen.ProblemVar[uint8](p, "x")
		p.Require(zen.And(zen.LtC(x, uint8(2)), zen.GtC(x, uint8(5))))
		ok, err = p.SolveCtx(context.Background())
		if err != nil {
			t.Errorf("%s: SolveCtx: %v", be.name, err)
		}
		r.expect(t, be.name+" Problem unsat", []string{"problem"}, 1, 0)
		note(ok)

		verdicts[be.name] = got
	}
	want := verdicts[driverBackends[0].name]
	if !reflect.DeepEqual(want, []any{true, false, true, true, 2, 4, true, false, true, 3, 3, false}) {
		t.Errorf("%s verdicts = %v", driverBackends[0].name, want)
	}
	for _, be := range driverBackends[1:] {
		if !reflect.DeepEqual(verdicts[be.name], want) {
			t.Errorf("%s verdicts = %v, want %v (as on %s)", be.name, verdicts[be.name], want, driverBackends[0].name)
		}
	}
}

// rawHolds evaluates a raw condition under a model with the interpreter.
func rawHolds(t *testing.T, cond *core.Node, m zen.RawModel) bool {
	t.Helper()
	v, err := zen.EvaluateRaw(context.Background(), cond, m)
	if err != nil {
		t.Fatalf("EvaluateRaw: %v", err)
	}
	return v.B
}

// TestProblemPresolveTelemetry checks that a Problem presolves and picks
// its auto backend inside its own telemetry record, as Fn.Find does.
func TestProblemPresolveTelemetry(t *testing.T) {
	var st zen.Stats
	p := zen.NewProblem(zen.WithAutoBackend(), zen.WithPresolve(), zen.WithStats(&st))
	x := zen.ProblemVar[uint8](p, "x")
	p.Require(zen.LtC(x, uint8(3)))
	if !p.Solve() {
		t.Fatal("x < 3 must be solvable")
	}
	s := st.Snapshot()
	if s.Absint.Presolves != 1 {
		t.Errorf("presolves = %d, want 1", s.Absint.Presolves)
	}
	var picks int64
	for _, n := range s.Absint.AutoPicks {
		picks += n
	}
	if picks != 1 {
		t.Errorf("auto picks = %v, want exactly one", s.Absint.AutoPicks)
	}
	if _, ok := s.Phase("presolve"); !ok {
		t.Errorf("no presolve phase recorded (have %v)", s.Phases)
	}
}
