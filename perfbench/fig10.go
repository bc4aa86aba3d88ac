package main

// fig10-verify: the paper's Figure-10 task run as a library caller would.
// One client issues "find an input whose first match is line (clause) k"
// queries against random ACLs and route maps, plus the Minesweeper
// 1-failure check, on every backend.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"zen-go/analyses/minesweeper"
	"zen-go/internal/absint"
	"zen-go/internal/backends"
	"zen-go/internal/core"
	"zen-go/internal/figgen"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/internal/portfolio"
	"zen-go/internal/sym"
	"zen-go/nets/acl"
	"zen-go/nets/bgp"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

var f10Backends = []string{"bdd", "sat", "portfolio", "auto"}

// f10Target is one model of the sweep. Exactly one of acl, rm is set,
// or neither for the Minesweeper check.
type f10Target struct {
	name  string
	acl   *acl.ACL
	rm    *routemap.RouteMap
	aclFn *zen.Fn[pkt.Header, uint16]
	rmFn  *zen.Fn[routemap.Route, uint16]
	reach map[int]bool // reference verdicts, by line
}

func (t *f10Target) lines() int {
	if t.acl != nil {
		return len(t.acl.Rules)
	}
	return len(t.rm.Clauses)
}

// f10Query is one Find (or the Minesweeper check when k < 0).
type f10Query struct {
	t       *f10Target
	backend string
	k       int
	decoy   bool
	want    bool // the reference verdict: true when an input exists
}

type fig10 struct {
	cfg     *config
	targets []*f10Target
	ms      *f10Target
	cycles  [][]f10Query
	tr      f10Trace
}

func runFig10(cfg *config) (*report, error) {
	rep := &report{}
	start := time.Now()
	w, err := newFig10(cfg)
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(start)
	if cfg.setupOnly {
		return rep, nil
	}
	w.run(rep)
	return rep, nil
}

// newFig10 generates the models, records the reference verdict of every
// query the run can issue, and warms each target once.
func newFig10(cfg *config) (*fig10, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &fig10{cfg: cfg}
	// The models are fixed, as in the paper's sweep. (Random models
	// differ in difficulty by more than a regression bound, so seeding
	// them would hide changes.)
	for _, n := range []int{250, 1000, 2000} {
		a := figgen.ACL(rand.New(rand.NewSource(int64(n))), n)
		w.targets = append(w.targets, &f10Target{name: fmt.Sprintf("acl/%d", n), acl: a, aclFn: zen.Func(a.MatchLine), reach: map[int]bool{}})
	}
	for _, n := range []int{20, 60} {
		m := figgen.RouteMap(rand.New(rand.NewSource(int64(n))), n)
		w.targets = append(w.targets, &f10Target{name: fmt.Sprintf("routemap/%d", n), rm: m, rmFn: zen.Func(m.MatchClause), reach: map[int]bool{}})
	}
	w.ms = &f10Target{name: "minesweeper-1fail"}

	// Each cycle asks every (target, backend) cell once. The four
	// backends of a target split its lines into quarters, one each,
	// rotating every cycle, so every cycle carries the same mix of easy
	// and hard lines. Within its quarter a cell walks a golden-ratio
	// sequence, so any run prefix samples each quarter evenly.
	// The lines are the same for every seed: within one cell they differ
	// in solve time by a factor of four between quartiles, so lines drawn
	// per seed would move the latency median by about a regression bound.
	// The seed orders each cycle's queries.
	layout := rand.New(rand.NewSource(1))
	nCycles := int(cfg.seconds.Seconds()*8) + 8
	rot := make([]int, len(w.targets))
	start := make([][]float64, len(w.targets))
	for ti := range w.targets {
		rot[ti] = layout.Intn(len(f10Backends))
		for range f10Backends {
			start[ti] = append(start[ti], layout.Float64())
		}
	}
	for c := 0; c < nCycles; c++ {
		var cyc []f10Query
		for ti, t := range w.targets {
			for bi, be := range f10Backends {
				n := t.lines()
				quarter := (bi + c + rot[ti]) % 4
				lo, hi := quarter*n/4, (quarter+1)*n/4
				u := start[ti][bi] + float64(c)*phi
				u -= float64(int(u))
				q := f10Query{t: t, backend: be, k: lo + int(u*float64(hi-lo))}
				// Half of the auto+presolve ACL queries carry the dead decoy.
				q.decoy = be == "auto" && t.acl != nil && (c+ti)%2 == 0
				want, err := t.reachable(q.k)
				if err != nil {
					return nil, err
				}
				q.want = want != cfg.corruptRefs
				cyc = append(cyc, q)
			}
		}
		// The square topology is 2-connected: one failure cannot cut D
		// off, so the check is unsat. BDD is intractable on it.
		cyc = append(cyc, f10Query{t: w.ms, backend: "sat", k: -1, want: cfg.corruptRefs},
			f10Query{t: w.ms, backend: "portfolio", k: -1, want: cfg.corruptRefs})
		rng.Shuffle(len(cyc), func(i, j int) { cyc[i], cyc[j] = cyc[j], cyc[i] })
		w.cycles = append(w.cycles, cyc)
	}
	for _, t := range w.targets {
		if _, ok, _ := w.find(f10Query{t: t, backend: "bdd", k: 0}); !ok {
			return nil, fmt.Errorf("warmup: %s line 0 unreachable", t.name)
		}
	}
	return w, nil
}

func (t *f10Target) reachable(k int) (bool, error) {
	if r, ok := t.reach[k]; ok {
		return r, nil
	}
	var r bool
	var err error
	if t.acl != nil {
		r = aclReachable(t.acl.Rules, k)
	} else {
		r, err = rmReachable(t.rm.Clauses, k)
	}
	t.reach[k] = r
	return r, err
}

// run issues the cycles until the measured time is up. A traced run
// alternates untraced and traced cycles: the traced ones give the layer
// metrics, the pair gives the tracing overhead.
func (w *fig10) run(rep *report) {
	var cycleTime [2]time.Duration
	var cycleOps [2]int
	cellMS := map[string][]float64{} // untraced latency by target and backend
	deadline := time.Now().Add(w.cfg.seconds)
	start := time.Now()
	for c := 0; c < len(w.cycles) && time.Now().Before(deadline); c++ {
		traced := w.cfg.trace && c%2 == 1
		c0 := time.Now()
		for _, q := range w.cycles[c] {
			if !time.Now().Before(deadline) {
				break
			}
			t0 := time.Now()
			var found, ok bool
			var err error
			if traced {
				found, ok, err = w.traceFind(q)
			} else {
				found, ok, err = w.find(q)
			}
			lat := ms(time.Since(t0))
			rep.attempted++
			switch {
			case err != nil:
				rep.failed++
				rep.note("%s %s line %d: %v", q.t.name, q.backend, q.k, err)
			case found != q.want || (found && !ok):
				rep.wrong++
				rep.note("%s %s line %d: found=%v witness-ok=%v, reference says %v", q.t.name, q.backend, q.k, found, ok, q.want)
			}
			if found {
				rep.packets++
			}
			if traced {
				w.tr.opMS = append(w.tr.opMS, lat)
			} else {
				rep.latMS = append(rep.latMS, lat)
				cell := q.t.name + " " + q.backend
				cellMS[cell] = append(cellMS[cell], lat)
			}
		}
		i := 0
		if traced {
			i = 1
		}
		cycleTime[i] += time.Since(c0)
		cycleOps[i] += len(w.cycles[c])
	}
	rep.wall = time.Since(start)
	cells := make([]string, 0, len(cellMS))
	for c := range cellMS {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		lat := cellMS[c]
		sort.Float64s(lat)
		rep.note("%s: %d ops, latency p25/p50/p75 %.2f/%.2f/%.2f ms", c, len(lat), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75))
	}
	if w.cfg.trace {
		rep.layers = w.tr.metrics()
		if cycleTime[0] > 0 && cycleTime[1] > 0 {
			un := float64(cycleOps[0]) / cycleTime[0].Seconds()
			tr := float64(cycleOps[1]) / cycleTime[1].Seconds()
			rep.layers["trace.overhead_pct"] = pct(un-tr, un)
		}
		rep.note("traced ops: %d, traced latency mean %.3f ms", len(w.tr.opMS), mean(w.tr.opMS))
	}
}

func backendOpts(be string) []zen.Option {
	switch be {
	case "sat":
		return []zen.Option{zen.WithBackend(zen.SAT)}
	case "portfolio":
		return []zen.Option{zen.WithBackend(zen.Portfolio), zen.WithPortfolioWorkers(1)}
	case "auto":
		return []zen.Option{zen.WithAutoBackend(), zen.WithPresolve(), zen.WithPortfolioWorkers(1)}
	}
	return []zen.Option{zen.WithBackend(zen.BDD)}
}

// aclPred is "first match is line k", optionally or-ed with a decoy that
// is dead by known bits ((proto|1) == 0) over a masked port product.
func aclPred(k uint16, decoy bool) func(zen.Value[pkt.Header], zen.Value[uint16]) zen.Value[bool] {
	return func(h zen.Value[pkt.Header], l zen.Value[uint16]) zen.Value[bool] {
		hit := zen.EqC(l, k)
		if !decoy {
			return hit
		}
		dp := zen.BitAnd(pkt.DstPort(h), zen.Lift(uint16(0x3ff)))
		sp := zen.BitAnd(pkt.SrcPort(h), zen.Lift(uint16(0x3ff)))
		poison := zen.EqC(zen.Mul(dp, sp), 999)
		dead := zen.EqC(zen.BitOr(pkt.Protocol(h), zen.Lift(uint8(1))), 0)
		return zen.Or(zen.And(poison, dead), hit)
	}
}

func rmPred(k uint16) func(zen.Value[routemap.Route], zen.Value[uint16]) zen.Value[bool] {
	return func(_ zen.Value[routemap.Route], l zen.Value[uint16]) zen.Value[bool] { return zen.EqC(l, k) }
}

// find runs one query through the public API, as a library caller
// would. It returns the verdict and whether the witness replays on the
// plain-Go matcher.
func (w *fig10) find(q f10Query) (found, ok bool, err error) {
	opts := backendOpts(q.backend)
	switch {
	case q.t.acl != nil:
		h, f := q.t.aclFn.Find(aclPred(uint16(q.k), q.decoy), opts...)
		return f, f && aclFirstMatch(q.t.acl.Rules, h) == q.k, nil
	case q.t.rm != nil:
		r, f := q.t.rmFn.Find(rmPred(uint16(q.k)), append(opts, zen.WithListBound(routemap.Depth))...)
		return f, f && rmFirstMatch(q.t.rm.Clauses, r) == q.k, nil
	}
	return minesweeperCheck(opts...), true, nil
}

// minesweeperCheck asks whether one failed session can leave router D of
// the square topology without a route.
func minesweeperCheck(opts ...zen.Option) bool {
	n := &bgp.Network{}
	a := n.AddRouter("A", 1)
	b := n.AddRouter("B", 2)
	c := n.AddRouter("C", 3)
	d := n.AddRouter("D", 4)
	a.Originates = true
	a.Origin = bgp.Route{Prefix: pkt.IP(203, 0, 113, 0), PrefixLen: 24, LocalPref: 100}
	n.ConnectBoth(a, b)
	n.ConnectBoth(a, c)
	n.ConnectBoth(b, d)
	n.ConnectBoth(c, d)
	return minesweeper.Check(n, minesweeper.Query{MaxFailures: 1, Property: minesweeper.Reachable(d)}, opts...).Found
}

// f10Trace accumulates the traced cycles' per-layer measurements.
type f10Trace struct {
	opMS                                    []float64
	buildMS, presolveMS, evalMS, decodeMS   []float64
	satSolveMS, raceMS                      []float64
	spanMS                                  float64 // time covered by layer spans
	dagNodes, removedPct                    []float64
	autoPicks, autoSAT                      int
	bddNodes, bddHits, bddLookups           float64
	bddOps                                  int
	satClauses, satConflicts, clausesImport []float64
}

func (t *f10Trace) span(into *[]float64, d time.Duration) {
	*into = append(*into, ms(d))
	t.spanMS += ms(d)
}

func (t *f10Trace) metrics() map[string]float64 {
	var opTotal float64
	for _, x := range t.opMS {
		opTotal += x
	}
	m := map[string]float64{
		"zen.build_ms":               mean(t.buildMS),
		"core.dag_nodes":             mean(t.dagNodes),
		"absint.presolve_ms":         mean(t.presolveMS),
		"absint.nodes_removed_pct":   mean(t.removedPct),
		"absint.auto_sat_pct":        pct(float64(t.autoSAT), float64(t.autoPicks)),
		"sym.eval_ms":                mean(t.evalMS),
		"sat.solve_ms":               mean(t.satSolveMS),
		"sat.clauses":                mean(t.satClauses),
		"sat.conflicts":              mean(t.satConflicts),
		"portfolio.race_ms":          mean(t.raceMS),
		"portfolio.clauses_imported": mean(t.clausesImport),
		"zen.decode_ms":              mean(t.decodeMS),
		"trace.unattributed_pct":     pct(opTotal-t.spanMS, opTotal),
	}
	if t.bddOps > 0 {
		m["bdd.nodes"] = t.bddNodes / float64(t.bddOps)
		m["bdd.cache_hit_pct"] = pct(t.bddHits, t.bddLookups)
	}
	return m
}

// traceFind runs one query by calling the layers' public functions in the
// order zen.Find does, timing each call.
func (w *fig10) traceFind(q f10Query) (found, ok bool, err error) {
	switch {
	case q.t.acl != nil:
		h, f, err := traceFind(w, q.t.aclFn, aclPred(uint16(q.k), q.decoy), q.backend, 3)
		return f, f && aclFirstMatch(q.t.acl.Rules, h) == q.k, err
	case q.t.rm != nil:
		r, f, err := traceFind(w, q.t.rmFn, rmPred(uint16(q.k)), q.backend, routemap.Depth)
		return f, f && rmFirstMatch(q.t.rm.Clauses, r) == q.k, err
	}
	// Minesweeper builds a zen.Problem internally; its phases come from
	// the zen.Stats the program already exports.
	st := &zen.Stats{}
	t0 := time.Now()
	found = minesweeperCheck(append(backendOpts(q.backend), zen.WithStats(st))...)
	total := time.Since(t0)
	s := st.Snapshot()
	tr := &w.tr
	if p, ok := s.Phase("symeval"); ok {
		tr.span(&tr.evalMS, p.Total)
	}
	if p, ok := s.Phase("solve"); ok {
		tr.span(&tr.satSolveMS, p.Total)
	}
	if p, ok := s.Phase("race"); ok {
		tr.span(&tr.raceMS, p.Total)
		tr.clausesImport = append(tr.clausesImport, float64(s.Portfolio.ClausesImported))
	}
	if p, ok := s.Phase("decode"); ok {
		tr.span(&tr.decodeMS, p.Total)
	}
	if s.SAT.Clauses > 0 {
		tr.satClauses = append(tr.satClauses, float64(s.SAT.Clauses))
		tr.satConflicts = append(tr.satConflicts, float64(s.SAT.Conflicts))
	}
	// The Problem's constraint DAG is built outside any phase: what the
	// phases leave of the call is its build.
	var phased time.Duration
	for _, p := range s.Phases {
		phased += p.Total
	}
	tr.span(&tr.buildMS, total-phased)
	return found, true, nil
}

func traceFind[I any](w *fig10, fn *zen.Fn[I, uint16], pred func(zen.Value[I], zen.Value[uint16]) zen.Value[bool], be string, bound int) (I, bool, error) {
	var zero I
	tr := &w.tr
	t0 := time.Now()
	cond := pred(fn.Arg(), fn.Out()).Raw()
	tr.span(&tr.buildMS, time.Since(t0))
	tr.dagNodes = append(tr.dagNodes, float64(core.Measure(cond).Nodes))

	if be == "auto" {
		t0 = time.Now()
		res := absint.Simplify(zen.Builder(), cond)
		w.cfg.delay("absint")
		choice, _ := absint.Predict(res.Root, bound)
		tr.span(&tr.presolveMS, time.Since(t0))
		cond = res.Root
		tr.removedPct = append(tr.removedPct, pct(float64(res.Stats.NodesBefore-res.Stats.NodesAfter), float64(res.Stats.NodesBefore)))
		tr.autoPicks++
		switch choice {
		case absint.ChooseSAT:
			be = "sat"
			tr.autoSAT++
		case absint.ChoosePortfolio:
			be = "portfolio"
		default:
			be = "bdd"
		}
	}
	varID := fn.Arg().Raw().VarID
	typ := zen.TypeOf[I]()
	switch be {
	case "portfolio":
		t0 = time.Now()
		sess, err := portfolio.Run(portfolio.Query{Cond: cond, Vars: []portfolio.VarSpec{{ID: varID, Type: typ, Bound: bound, Name: "in"}}},
			portfolio.Config{SATWorkers: 1}, nil)
		tr.span(&tr.raceMS, time.Since(t0))
		if err != nil {
			return zero, false, err
		}
		tr.clausesImport = append(tr.clausesImport, float64(sess.Outcome().ClausesImported))
		if !sess.Found() {
			return zero, false, nil
		}
		t0 = time.Now()
		out := fromInterp[I](sess.Model(varID))
		tr.span(&tr.decodeMS, time.Since(t0))
		return out, true, nil
	case "sat":
		return traceSolve[I](w, backends.NewSAT(), cond, varID, typ, bound, true)
	}
	return traceSolve[I](w, backends.NewBDD(), cond, varID, typ, bound, false)
}

func traceSolve[I any, B comparable](w *fig10, alg sym.Solver[B], cond *core.Node, varID int32, typ *core.Type, bound int, isSAT bool) (I, bool, error) {
	var zero I
	tr := &w.tr
	t0 := time.Now()
	in := sym.Fresh(alg, typ, bound, "in")
	out := sym.EvalCheck(alg, cond, sym.Env[B]{varID: in.Val}, nil)
	tr.span(&tr.evalMS, time.Since(t0))
	t0 = time.Now()
	found := alg.Solve(out.Bit)
	d := time.Since(t0)
	if isSAT {
		tr.span(&tr.satSolveMS, d)
	} else {
		tr.spanMS += ms(d) // picking a BDD path is part of the BDD layer
	}
	var s obs.Snapshot
	alg.(obs.Reporter).ReportInto(&s)
	if isSAT {
		tr.satClauses = append(tr.satClauses, float64(s.SAT.Clauses))
		tr.satConflicts = append(tr.satConflicts, float64(s.SAT.Conflicts))
	} else {
		tr.bddOps++
		tr.bddNodes += float64(s.BDD.Nodes)
		tr.bddHits += float64(s.BDD.CacheHits)
		tr.bddLookups += float64(s.BDD.CacheHits + s.BDD.CacheMisses)
	}
	if !found {
		return zero, false, nil
	}
	t0 = time.Now()
	res := fromInterp[I](in.Decode(alg.BitValue))
	tr.span(&tr.decodeMS, time.Since(t0))
	return res, true, nil
}

// fromInterp converts a decoded model value into its Go type: objects
// field by field, lists element by element, scalars from their bits.
func fromInterp[T any](v *interp.Value) T {
	var out T
	setValue(reflect.ValueOf(&out).Elem(), v)
	return out
}

func setValue(rv reflect.Value, v *interp.Value) {
	switch rv.Kind() {
	case reflect.Bool:
		rv.SetBool(v.B)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		rv.SetUint(v.U)
	case reflect.Struct:
		for i, f := range v.Fields {
			setValue(rv.Field(i), f)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(rv.Type(), len(v.Elems), len(v.Elems))
		for i, e := range v.Elems {
			setValue(s.Index(i), e)
		}
		rv.Set(s)
	default:
		panic(fmt.Sprintf("fromInterp: unsupported kind %s", rv.Kind()))
	}
}
