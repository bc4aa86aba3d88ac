package benchsuite

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"zen-go/analyses/minesweeper"
	"zen-go/internal/figgen"
	"zen-go/internal/serve"
	"zen-go/nets/bgp"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

// Cases returns the pinned suite. It mirrors the repo's evaluation
// benchmarks (Figure 10 solver paths, the §8 execution ablation, and the
// service path from bench_test.go) at fixed sizes, so the committed
// BENCH files track one stable workload across PRs.
//
// Order is part of the pin: the service-path cases run first, before
// the big Figure 10 workloads intern millions of nodes into the
// process-global hash-cons table (zen's builder is global by design —
// serve fingerprints key on that pointer identity). Running them on a
// clean heap keeps serve/query-cold comparable to the standalone
// BenchmarkServeQueryCold; reordering the suite would shift its numbers
// without any code changing.
func Cases() []Case {
	return []Case{
		{Name: "serve/query-cold", Make: serveColdCase},
		{Name: "serve/query-cached", Make: serveCachedCase},
		{Name: "serve/parallel-clients", Make: serveParallelCase},
		{Name: "evaluate/interp/100", Make: func() (*Instance, error) { return evalCase(false) }},
		{Name: "evaluate/compiled/100", Make: func() (*Instance, error) { return evalCase(true) }},
		{Name: "routemap-find/bdd/60", Make: func() (*Instance, error) { return rmFindCase(zen.BDD, 60) }},
		{Name: "routemap-find/sat/60", Make: func() (*Instance, error) { return rmFindCase(zen.SAT, 60) }},
		{Name: "acl-find/bdd/4000", Make: func() (*Instance, error) { return aclFindCase(zen.BDD, 4000) }},
		{Name: "acl-find/sat/4000", Make: func() (*Instance, error) { return aclFindCase(zen.SAT, 4000) }},
		// Portfolio cases are appended after the originals (order is part
		// of the pin; see above): the same Figure 10 workloads racing all
		// strategies, and a Minesweeper k-failure sweep. The sweep has no
		// bdd variant — its stable-path constraint system is intractable
		// for BDDs (tens of GB, no answer in minutes), which is precisely
		// why the portfolio variant completes: the SAT worker wins while
		// the BDD strategy flounders.
		{Name: "routemap-find/portfolio/60", Make: func() (*Instance, error) { return rmFindCase(zen.Portfolio, 60) }},
		{Name: "acl-find/portfolio/4000", Make: func() (*Instance, error) { return aclFindCase(zen.Portfolio, 4000) }},
		{Name: "minesweeper-1fail/sat", Make: func() (*Instance, error) { return msSweepCase(zen.SAT) }},
		{Name: "minesweeper-1fail/portfolio", Make: func() (*Instance, error) { return msSweepCase(zen.Portfolio) }},
		// The churn case is appended after the originals (order is part of
		// the pin; see above): one op is a full /v1/update round — apply a
		// rule delta to a live ACL instance and re-answer every tracked
		// query. Its cold-resolve-ns metric records what re-solving the same
		// tracked queries from scratch cost at setup, so the committed file
		// documents the delta path's advantage.
		{Name: "serve/update-churn", Make: serveChurnCase},
		// The presolve ablation is appended after the originals (order is
		// part of the pin; see above): the same ACL find query carrying a
		// dead decoy cone — a known-bits-impossible guard over a
		// multiplication — solved with and without the
		// abstract-interpretation presolve. The committed file documents
		// the delta: with presolve on, the decoy never reaches the solver
		// (fewer BDD nodes per op) at the cost of presolve-ns.
		{Name: "presolve/acl-decoy/off", Make: func() (*Instance, error) { return presolveCase(false) }},
		{Name: "presolve/acl-decoy/on", Make: func() (*Instance, error) { return presolveCase(true) }},
		// The Figure 10 ACL workload with the backend chosen by the static
		// cost predictor instead of pinned; auto-picks-*-% records what it
		// chose (the 4000-line DAG should route to SAT).
		{Name: "acl-find/auto/4000", Make: autoFindCase},
		// The bitslice cases are appended after the originals (order is
		// part of the pin; see above). bitslice-vs-scalar runs the same
		// 100-line ACL as the §8 execution ablation through the bitsliced
		// batch engine, 256 packets per op; its speedup-x metric pins the
		// engine's throughput edge over the scalar interpreter.
		// evaluate-stream measures the full /v1/evaluate NDJSON round
		// trip — header parse, chunked batch evaluation on the worker
		// pool, per-item encode — for the same 256 packets.
		{Name: "evaluate/bitslice-vs-scalar", Make: bitsliceCase},
		{Name: "serve/evaluate-stream", Make: serveStreamCase},
		// The churn case at zend-mix's scale, appended after the
		// originals (order is part of the pin; see above): a 200-rule
		// figgen ACL with 128 tracked queries, one permit flip per op.
		{Name: "serve/update-churn/200", Make: serveChurn200Case},
	}
}

// backendMetrics converts harvested solver telemetry into per-op custom
// metrics, matching the names bench_test.go reports.
func backendMetrics(st *zen.Stats) func(n int) map[string]float64 {
	return func(n int) map[string]float64 {
		s := st.Snapshot()
		out := map[string]float64{}
		if s.BDD.Nodes > 0 {
			out["bdd-nodes/op"] = float64(s.BDD.Nodes) / float64(n)
			out["bdd-cache-hit-%"] = 100 * s.BDD.CacheHitRate()
		}
		if s.SAT.Clauses > 0 {
			out["sat-clauses/op"] = float64(s.SAT.Clauses) / float64(n)
			out["sat-conflicts/op"] = float64(s.SAT.Conflicts) / float64(n)
			out["sat-props/op"] = float64(s.SAT.Propagations) / float64(n)
		}
		if s.Portfolio.Races > 0 {
			for k, v := range s.Portfolio.WinsBy {
				out["portfolio-wins-"+k+"-%"] = 100 * float64(v) / float64(s.Portfolio.Races)
			}
		}
		return out
	}
}

// aclFindCase is Figure 10 (left) at one pinned size: find a packet
// matching the last line of a random 4000-line ACL.
func aclFindCase(be zen.Backend, lines int) (*Instance, error) {
	rng := rand.New(rand.NewSource(42))
	a := figgen.ACL(rng, lines)
	last := uint16(len(a.Rules) - 1)
	st := &zen.Stats{}
	return &Instance{
		Iter: func() {
			fn := zen.Func(a.MatchLine)
			if _, ok := fn.Find(func(_ zen.Value[pkt.Header], l zen.Value[uint16]) zen.Value[bool] {
				return zen.EqC(l, last)
			}, zen.WithBackend(be), zen.WithStats(st)); !ok {
				panic("catch-all line unreachable")
			}
		},
		Metrics: backendMetrics(st),
	}, nil
}

// presolveCase is the presolve ablation: a 400-line ACL find whose
// predicate drags in a decoy cone — a 10-bit masked port multiplication
// conjoined with (proto | 1) == 0, impossible by known bits. The
// multiplication sits on the left, so the BDD backend builds its full
// variable-interleaved BDD before the impossible right conjunct can
// collapse the conjunction; with presolve on, the simplifier folds the
// guard first and the solver never sees the multiplication. The ~13x
// bdd-nodes/op gap between off and on is the number this case pins.
func presolveCase(on bool) (*Instance, error) {
	rng := rand.New(rand.NewSource(42))
	a := figgen.ACL(rng, 400)
	last := uint16(len(a.Rules) - 1)
	st := &zen.Stats{}
	opts := []zen.Option{zen.WithBackend(zen.BDD), zen.WithStats(st)}
	if on {
		opts = append(opts, zen.WithPresolve())
	}
	return &Instance{
		Iter: func() {
			fn := zen.Func(a.MatchLine)
			if _, ok := fn.Find(func(h zen.Value[pkt.Header], l zen.Value[uint16]) zen.Value[bool] {
				dp := zen.BitAnd(pkt.DstPort(h), zen.Lift(uint16(0x3ff)))
				sp := zen.BitAnd(pkt.SrcPort(h), zen.Lift(uint16(0x3ff)))
				poison := zen.EqC(zen.Mul(dp, sp), 999)
				decoy := zen.EqC(zen.BitOr(pkt.Protocol(h), zen.Lift(uint8(1))), 0)
				return zen.Or(zen.And(poison, decoy), zen.EqC(l, last))
			}, opts...); !ok {
				panic("catch-all line unreachable")
			}
		},
		Metrics: func(n int) map[string]float64 {
			out := backendMetrics(st)(n)
			s := st.Snapshot()
			if s.Absint.Presolves > 0 {
				out["sliced-inputs/op"] = float64(s.Absint.SlicedInputs) / float64(n)
				out["presolve-nodes-removed/op"] =
					float64(s.Absint.NodesBefore-s.Absint.NodesAfter) / float64(n)
				if p, ok := s.Phase("presolve"); ok && p.Count > 0 {
					out["presolve-ns"] = float64(p.Total.Nanoseconds()) / float64(p.Count)
				}
			}
			return out
		},
	}, nil
}

// autoFindCase is aclFindCase with the backend left to the static cost
// predictor ("auto"): the pick lands in the auto-picks metrics.
func autoFindCase() (*Instance, error) {
	rng := rand.New(rand.NewSource(42))
	a := figgen.ACL(rng, 4000)
	last := uint16(len(a.Rules) - 1)
	st := &zen.Stats{}
	return &Instance{
		Iter: func() {
			fn := zen.Func(a.MatchLine)
			if _, ok := fn.Find(func(_ zen.Value[pkt.Header], l zen.Value[uint16]) zen.Value[bool] {
				return zen.EqC(l, last)
			}, zen.WithAutoBackend(), zen.WithStats(st)); !ok {
				panic("catch-all line unreachable")
			}
		},
		Metrics: func(n int) map[string]float64 {
			out := backendMetrics(st)(n)
			s := st.Snapshot()
			var picks int64
			for _, v := range s.Absint.AutoPicks {
				picks += v
			}
			for k, v := range s.Absint.AutoPicks {
				out["auto-picks-"+k+"-%"] = 100 * float64(v) / float64(picks)
			}
			return out
		},
	}, nil
}

// rmFindCase is Figure 10 (right) at one pinned size.
func rmFindCase(be zen.Backend, clauses int) (*Instance, error) {
	rng := rand.New(rand.NewSource(42))
	rm := figgen.RouteMap(rng, clauses)
	last := uint16(len(rm.Clauses) - 1)
	st := &zen.Stats{}
	return &Instance{
		Iter: func() {
			fn := zen.Func(rm.MatchClause)
			if _, ok := fn.Find(func(_ zen.Value[routemap.Route], l zen.Value[uint16]) zen.Value[bool] {
				return zen.EqC(l, last)
			}, zen.WithBackend(be), zen.WithListBound(routemap.Depth), zen.WithStats(st)); !ok {
				panic("catch-all clause unreachable")
			}
		},
		Metrics: backendMetrics(st),
	}, nil
}

// msSweepCase is a Minesweeper k-failure sweep on the 2-connected square
// topology: with a budget of one failed session the property holds, so
// the constraint system is unsat — the adversarial shape where clause
// reuse matters (the paper's stable-path analysis, §5).
func msSweepCase(be zen.Backend) (*Instance, error) {
	st := &zen.Stats{}
	return &Instance{
		Iter: func() {
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
			res := minesweeper.Check(n, minesweeper.Query{
				MaxFailures: 1,
				Property:    minesweeper.Reachable(d),
			}, zen.WithBackend(be), zen.WithStats(st))
			if res.Found {
				panic("square is 2-connected; one failure cannot disconnect D")
			}
		},
		Metrics: backendMetrics(st),
	}, nil
}

// evalCase is the §8 execution ablation: run a 100-line ACL model on
// concrete packets, interpreted vs compiled.
func evalCase(compiled bool) (*Instance, error) {
	rng := rand.New(rand.NewSource(7))
	a := figgen.ACL(rng, 100)
	fn := zen.Func(a.MatchLine)
	pkts := make([]pkt.Header, 256)
	for i := range pkts {
		pkts[i] = pkt.Header{
			DstIP:    rng.Uint32(),
			SrcIP:    rng.Uint32(),
			DstPort:  uint16(rng.Intn(65536)),
			SrcPort:  uint16(rng.Intn(65536)),
			Protocol: uint8(rng.Intn(256)),
		}
	}
	i := 0
	if compiled {
		run := fn.Compile()
		return &Instance{Iter: func() { run(pkts[i%len(pkts)]); i++ }}, nil
	}
	return &Instance{Iter: func() { fn.Evaluate(pkts[i%len(pkts)]); i++ }}, nil
}

// bitsliceCase pits the bitsliced batch engine against the scalar
// interpreter on the §8 ACL workload: one op pushes 256 packets through
// EvaluateBatch (four 64-lane steps). The scalar reference time is
// measured once at setup over the same packets, so speedup-x compares
// like for like; packets/sec is the headline dataplane number.
func bitsliceCase() (*Instance, error) {
	rng := rand.New(rand.NewSource(7))
	a := figgen.ACL(rng, 100)
	fn := zen.Func(a.MatchLine)
	pkts := make([]pkt.Header, 256)
	for i := range pkts {
		pkts[i] = pkt.Header{
			DstIP:    rng.Uint32(),
			SrcIP:    rng.Uint32(),
			DstPort:  uint16(rng.Intn(65536)),
			SrcPort:  uint16(rng.Intn(65536)),
			Protocol: uint8(rng.Intn(256)),
		}
	}
	want := make([]uint16, len(pkts))
	for i, p := range pkts {
		want[i] = fn.Evaluate(p)
	}
	const scalarRounds = 20
	start := time.Now()
	for r := 0; r < scalarRounds; r++ {
		for _, p := range pkts {
			fn.Evaluate(p)
		}
	}
	scalarNS := float64(time.Since(start).Nanoseconds()) / float64(scalarRounds*len(pkts))
	var batchNS int64
	return &Instance{
		Iter: func() {
			t0 := time.Now()
			out := fn.EvaluateBatch(pkts)
			batchNS += time.Since(t0).Nanoseconds()
			for i := range out {
				if out[i] != want[i] {
					panic(fmt.Sprintf("packet %d: batch=%d scalar=%d", i, out[i], want[i]))
				}
			}
		},
		Metrics: func(n int) map[string]float64 {
			per := float64(batchNS) / float64(n*len(pkts))
			return map[string]float64{
				"packets/sec":      1e9 / per,
				"batch-ns/packet":  per,
				"scalar-ns/packet": scalarNS,
				"speedup-x":        scalarNS / per,
			}
		},
	}, nil
}

// serveStreamCase measures the streaming evaluate endpoint end to end
// through the real handler: one op POSTs a 258-line NDJSON stream (header
// + 256 items) and reads back start, results, and trailer.
func serveStreamCase() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 2, Queue: 1 << 16})
	h := s.Handler()
	const items = 256
	var b strings.Builder
	b.WriteString(`{"model": "demo/add8"}` + "\n")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, `{"args": [%d]}`+"\n", i%256)
	}
	body := b.String()
	wantLines := items + 2 // start + results + trailer
	return &Instance{
		Iter: func() {
			req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 200 || strings.Count(w.Body.String(), "\n") != wantLines {
				panic(fmt.Sprintf("stream: status %d, %d lines (want %d)",
					w.Code, strings.Count(w.Body.String(), "\n"), wantLines))
			}
		},
		Metrics: func(n int) map[string]float64 {
			st := s.Stats()
			return map[string]float64{
				"stream-items/op": float64(st.StreamItems) / float64(n),
				"stream-errors":   float64(st.StreamErrors),
			}
		},
		Close: func() { s.Shutdown(context.Background()) },
	}, nil
}

func serveFindReq(v uint64) *serve.Request {
	return &serve.Request{
		Model: "demo/add8",
		Kind:  "find",
		Predicate: json.RawMessage(fmt.Sprintf(
			`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":%d}}}`, v)),
	}
}

// serveMetrics surfaces the service's cache effectiveness.
func serveMetrics(s *serve.Server) func(n int) map[string]float64 {
	return func(n int) map[string]float64 {
		st := s.Stats()
		return map[string]float64{"cache-hit-%": 100 * st.CacheHitRate}
	}
}

// serveColdCase measures the full service path with caching disabled:
// predicate compile, fingerprint, pool dispatch, solve, decode. This is
// also the "tracing is free when unobserved" sentinel: the request is
// untraced, so its ns/op must not move when observability code changes.
func serveColdCase() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 1, Queue: 1 << 16, CacheSize: -1})
	ctx := context.Background()
	req := serveFindReq(7)
	return &Instance{
		Iter: func() {
			if res := s.Do(ctx, req); res.Status != "sat" || res.Cached() {
				panic(fmt.Sprintf("cold query: %q cached=%v (%s)", res.Status, res.Cached(), res.ErrText()))
			}
		},
		Metrics: serveMetrics(s),
		Close:   func() { s.Shutdown(context.Background()) },
	}, nil
}

// serveCachedCase measures a repeated identical query: an LRU hit with
// zero solver work.
func serveCachedCase() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 1, Queue: 1 << 16})
	ctx := context.Background()
	req := serveFindReq(7)
	if res := s.Do(ctx, req); res.Status != "sat" {
		return nil, fmt.Errorf("prime query: %q (%s)", res.Status, res.ErrText())
	}
	return &Instance{
		Iter: func() {
			if res := s.Do(ctx, req); !res.Cached() {
				panic("expected a cache hit")
			}
		},
		Metrics: serveMetrics(s),
		Close:   func() { s.Shutdown(context.Background()) },
	}, nil
}

// serveChurnCase measures incremental re-verification under rule churn:
// an ACL instance with 48 rules and 16 tracked queries takes one modify
// delta per op, toggling rule 0's permit bit. The delta's footprint
// intersects one query's atom classes, so each update re-verifies one
// query on the exact-set path (no solver) and reuses the other fifteen.
// cold-resolve-ns is the one-time cost of answering all sixteen queries
// cold, measured at setup — the number an update would pay without the
// delta path.
func serveChurnCase() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 1, Queue: 1 << 16})
	ctx := context.Background()
	const nRules, nQueries = 48, 16
	rules := make([]json.RawMessage, 0, nRules)
	for i := 0; i < nRules; i++ {
		p := 1000 + i
		rules = append(rules, json.RawMessage(fmt.Sprintf(
			`{"Permit": true, "DstLow": %d, "DstHigh": %d}`, p, p)))
	}
	if res := s.CreateInstance(ctx, &serve.InstanceRequest{
		Name: "bench/acl", Family: "acl", Rules: rules,
	}); res.Status != "created" {
		return nil, fmt.Errorf("create instance: %q", res.Status)
	}
	reqs := make([]*serve.Request, nQueries)
	for i := range reqs {
		reqs[i] = &serve.Request{
			Model: "bench/acl",
			Kind:  "find",
			Predicate: json.RawMessage(fmt.Sprintf(
				`{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":%d}}}]}`, 1000+i)),
		}
	}
	start := time.Now()
	for i, req := range reqs {
		if res := s.Do(ctx, req); res.Status != "sat" {
			return nil, fmt.Errorf("track query %d: %q (%s)", i, res.Status, res.ErrText())
		}
	}
	coldNS := float64(time.Since(start).Nanoseconds())
	baseSolves := zen.GlobalStats().Snapshot().Solves
	permit := true
	return &Instance{
		Iter: func() {
			permit = !permit
			rule := fmt.Sprintf(`{"Permit": %v, "DstLow": 1000, "DstHigh": 1000}`, permit)
			res := s.DoUpdate(ctx, &serve.UpdateRequest{
				Instance: "bench/acl",
				Deltas:   []serve.Delta{{Op: "modify", Index: 0, Rule: json.RawMessage(rule)}},
			})
			if res.Status != "updated" {
				panic(fmt.Sprintf("update: %q", res.Status))
			}
			if res.Reused+res.Reverified != nQueries {
				panic(fmt.Sprintf("update touched %d+%d of %d tracked queries",
					res.Reused, res.Reverified, nQueries))
			}
		},
		Metrics: churnMetrics(s, baseSolves, coldNS),
		Close:   func() { s.Shutdown(context.Background()) },
	}, nil
}

// churnMetrics reports an update-churn case's per-op delta counters.
func churnMetrics(s *serve.Server, baseSolves int64, coldNS float64) func(n int) map[string]float64 {
	return func(n int) map[string]float64 {
		st := s.Stats()
		return map[string]float64{
			"delta-reused/op":     float64(st.DeltaReused) / float64(n),
			"delta-reverified/op": float64(st.DeltaReverified) / float64(n),
			// Solver invocations across every update: the acl set path
			// re-verifies without solving, so this stays at zero.
			"solver-solves/op": float64(zen.GlobalStats().Snapshot().Solves-baseSolves) / float64(n),
			"cold-resolve-ns":  coldNS,
		}
	}
}

// serveChurn200Case is serve/update-churn at zend-mix's scale: the same
// 200-rule figgen ACL (seed 200), the instance's full 128 tracked
// queries, and one op flips the permit bit of rules 3, 11, 19 and 27 in
// turn. The queries are zend-mix's ACL shape: a destination-address
// slice near some rule's prefix, sometimes narrowed to a protocol, with
// the verdict pinned; half are verifies. Queries the subsumption index
// answers are not tracked, so set-up draws until 128 are.
func serveChurn200Case() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 1, Queue: 1 << 16})
	ctx := context.Background()
	const nRules, nTracked = 200, 128
	rules := figgen.ACL(rand.New(rand.NewSource(nRules)), nRules).Rules
	raws := make([]json.RawMessage, len(rules))
	for i, r := range rules {
		raws[i], _ = json.Marshal(r)
	}
	if res := s.CreateInstance(ctx, &serve.InstanceRequest{
		Name: "bench/acl", Family: "acl", Rules: raws,
	}); res.Status != "created" {
		return nil, fmt.Errorf("create instance: %q", res.Status)
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for tracked, i := 0, 0; tracked < nTracked; i++ {
		if i == 4*nTracked {
			return nil, fmt.Errorf("only %d of %d queries tracked after %d", tracked, nTracked, i)
		}
		r := rules[rng.Intn(len(rules))]
		span := uint32(1) << (8 + rng.Intn(17))
		lo := (r.DstPfx.Address | rng.Uint32()&^r.DstPfx.Mask()) &^ (span - 1)
		slice := fmt.Sprintf(`{"cmp":{"lhs":{"ref":"in.DstIP"},"op":"ge","rhs":{"lit":%d}}},{"cmp":{"lhs":{"ref":"in.DstIP"},"op":"le","rhs":{"lit":%d}}}`, lo, lo+span-1)
		if rng.Intn(2) == 0 {
			slice += fmt.Sprintf(`,{"cmp":{"lhs":{"ref":"in.Protocol"},"op":"eq","rhs":{"lit":%d}}}`, []int{1, 6, 17}[rng.Intn(3)])
		}
		out := fmt.Sprintf(`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":%v}}}`, rng.Intn(2) == 0)
		req := &serve.Request{Model: "bench/acl", Kind: "find", Predicate: json.RawMessage(`{"all":[` + out + `,` + slice + `]}`)}
		if i%2 == 1 {
			req.Kind = "verify"
			req.Predicate = json.RawMessage(`{"any":[{"not":{"all":[` + slice + `]}},` + out + `]}`)
		}
		if res := s.Do(ctx, req); res.Err != nil {
			return nil, fmt.Errorf("track query %d: %q (%s)", i, res.Status, res.ErrText())
		}
		tracked = s.Instances()[0]["tracked"].(int)
	}
	coldNS := float64(time.Since(start).Nanoseconds())
	baseSolves := zen.GlobalStats().Snapshot().Solves
	toggle := []int{3, 11, 19, 27}
	flips := 0
	return &Instance{
		Iter: func() {
			idx := toggle[flips%len(toggle)]
			flips++
			rules[idx].Permit = !rules[idx].Permit
			rule, _ := json.Marshal(rules[idx])
			res := s.DoUpdate(ctx, &serve.UpdateRequest{
				Instance: "bench/acl",
				Deltas:   []serve.Delta{{Op: "modify", Index: idx, Rule: rule}},
			})
			if res.Status != "updated" {
				panic(fmt.Sprintf("update: %q", res.Status))
			}
			if res.Reused+res.Reverified != nTracked {
				panic(fmt.Sprintf("update touched %d+%d of %d tracked queries",
					res.Reused, res.Reverified, nTracked))
			}
		},
		Metrics: churnMetrics(s, baseSolves, coldNS),
		Close:   func() { s.Shutdown(context.Background()) },
	}, nil
}

// serveParallelCase measures a warm working set under client
// concurrency: one op is 64 queries issued by 8 goroutines, so it
// exercises cache lookup, histogram, and counter contention rather than
// the solver.
func serveParallelCase() (*Instance, error) {
	s := serve.New(serve.Config{Workers: 4, Queue: 1 << 16})
	ctx := context.Background()
	reqs := make([]*serve.Request, 16)
	for i := range reqs {
		reqs[i] = serveFindReq(uint64(i))
		if res := s.Do(ctx, reqs[i]); res.Status != "sat" {
			return nil, fmt.Errorf("warmup %d: %q (%s)", i, res.Status, res.ErrText())
		}
	}
	const clients = 8
	const perClient = 8
	return &Instance{
		Iter: func() {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						if res := s.Do(ctx, reqs[(c*perClient+i)%len(reqs)]); res.Status != "sat" {
							panic(fmt.Sprintf("parallel query: %q (%s)", res.Status, res.ErrText()))
						}
					}
				}(c)
			}
			wg.Wait()
		},
		Metrics: serveMetrics(s),
		Close:   func() { s.Shutdown(context.Background()) },
	}, nil
}
