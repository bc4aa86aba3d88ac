package main

// zend-mix: zend as its callers use it. Two closed-loop clients POST JSON
// to serve.Server.Handler() in-process: find and verify queries on
// registry models and on two runtime instances, drawn Zipf-like from a
// predicate pool four times the LRU, plus single-rule /v1/update deltas
// on the ACL instance. Answers are checked after the measured window:
// witnesses replay on plain-Go models, and unsat/valid verdicts must
// match a cold solve on a second server with every cache tier off.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zen-go/internal/figgen"
	"zen-go/internal/serve"
	"zen-go/nets/acl"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"

	// Register the NAT models with the registry the server exposes
	// (serve itself links only the ACL and route-map families).
	_ "zen-go/nets/nat"
)

const (
	zmPoolSize   = 1024 // predicates; zend's default LRU holds 256
	zmDerivedPct = 20   // share of the pool that strengthens an earlier entry
	zmUpdateN    = 33   // every zmUpdateN-th request is a /v1/update delta
	zmZipfS      = 1.1  // rank r is drawn with weight (zmZipfV+r)^-zmZipfS
	zmZipfV      = 4
	zmClients    = 2
	zmWarmup     = 400 // requests issued in set-up, to reach the steady state
	zmACLRules   = 200
	zmRMClauses  = 30
	zmSlice      = 500 * time.Millisecond
)

// zmModel is one queryable target of the mix.
type zmModel struct {
	name   string
	weight int // pool entries per block of 20
	input  reflect.Type
	// output computes the model's result on a concrete input, in ACL
	// instance state mask (ignored by models without state).
	output func(mask int, in reflect.Value) reflect.Value
	pred   func(rng *rand.Rand, verify bool) *pnode
}

// zmEntry is one pool predicate.
type zmEntry struct {
	m       *zmModel
	kind    string
	backend string
	pred    *pnode
	body    []byte
}

// zmAnswer is one query answer, checked after the run.
type zmAnswer struct {
	e          *zmEntry
	verdict    string
	witness    json.RawMessage
	lo, hi     int // ACL instance versions the answer may reflect
	provenance string
}

type zendMix struct {
	cfg     *config
	srv     *serve.Server
	h       http.Handler
	models  []*zmModel
	pool    []*zmEntry
	cdf     []float64 // cumulative Zipf law over pool ranks
	aclBase []acl.Rule
	toggle  []int // rule indices updates flip
	rm      []routemap.Clause

	// aclByPred finds the ACL-instance entry behind a predicate that a
	// /v1/update response echoes, keyed by kind and compact JSON.
	aclByPred map[string]*zmEntry

	updMu   sync.Mutex
	masks   []int // ACL state mask after each update; masks[0] == 0
	started atomic.Int64
	done    atomic.Int64

	mu      sync.Mutex
	answers []zmAnswer
	tr      zmTrace
}

func runZendMix(cfg *config) (*report, error) {
	rep := &report{}
	start := time.Now()
	z, err := newZendMix(cfg)
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(start)
	defer z.srv.Shutdown(context.Background())
	if cfg.setupOnly {
		return rep, nil
	}
	z.run(rep)
	z.check(rep)
	return rep, nil
}

func newZendMix(cfg *config) (*zendMix, error) {
	z := &zendMix{cfg: cfg, masks: []int{0}}
	z.srv = serve.New(serve.Config{
		Workers: 2, Queue: 16, CacheSize: 256, PortfolioWorkers: 1,
		DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute, Presolve: true,
	})
	z.h = z.srv.Handler()
	if d := cfg.inject["http"]; d > 0 {
		inner := z.h
		z.h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			inner.ServeHTTP(w, r)
		})
	}
	// The instances' rule lists are fixed; the seed draws the traffic.
	z.aclBase = figgen.ACL(rand.New(rand.NewSource(zmACLRules)), zmACLRules).Rules
	z.toggle = []int{3, 11, 19, 27} // rules whose permit bit updates flip
	z.rm = figgen.RouteMap(rand.New(rand.NewSource(zmRMClauses)), zmRMClauses).Clauses
	if err := createInstance(z.h, "bench/acl", "acl", z.aclBase); err != nil {
		return nil, err
	}
	if err := createInstance(z.h, "bench/rm", "routemap", z.rm); err != nil {
		return nil, err
	}
	var err error
	if z.models, err = z.buildModels(); err != nil {
		return nil, err
	}
	// The pool is part of the workload and fixed; the seed draws the
	// request sequence.
	z.buildPool(rand.New(rand.NewSource(zmPoolSize)))
	z.cdf = zipfCDF(zmPoolSize, zmZipfS, zmZipfV)
	// Warm up into the steady state: registry DAGs are built on first
	// use, and the LRU, the subsumption index and the instance's tracked
	// queries fill over the first few hundred requests. The warm-up
	// sequence is fixed, so every seed starts from the same state.
	errs := make([]error, zmClients)
	var wg sync.WaitGroup
	warm := z.newSeq(-1)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < zmWarmup/zmClients && errs[c] == nil; i++ {
				_, _, _, errs[c] = z.request(warm)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warmup: %v", err)
		}
	}
	z.answers = z.answers[:0]
	return z, nil
}

func createInstance[R any](h http.Handler, name, family string, rules []R) error {
	raws := make([]json.RawMessage, len(rules))
	for i, r := range rules {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		raws[i] = b
	}
	body, err := json.Marshal(serve.InstanceRequest{Name: name, Family: family, Rules: raws})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/instances", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("create instance %s: HTTP %d: %s", name, rec.Code, rec.Body.String())
	}
	return nil
}

// aclRulesAt is the ACL instance's rule list in a state mask: bit i set
// means toggle[i]'s permit bit is flipped.
func (z *zendMix) aclRulesAt(mask int) []acl.Rule {
	rules := append([]acl.Rule(nil), z.aclBase...)
	for i, idx := range z.toggle {
		if mask&(1<<i) != 0 {
			rules[idx].Permit = !rules[idx].Permit
		}
	}
	return rules
}

var (
	headerType = reflect.TypeOf(pkt.Header{})
	routeType  = reflect.TypeOf(routemap.Route{})
)

// registryOutput evaluates a registry model on the interpreter through
// its typed zen.Fn (the registry's rule lists are private to nets/).
func registryOutput[I, O any](name string) (func(int, reflect.Value) reflect.Value, error) {
	for _, m := range zen.RegisteredModels() {
		if m.Name != name {
			continue
		}
		fn, ok := m.Build().(*zen.Fn[I, O])
		if !ok {
			return nil, fmt.Errorf("registry model %s: unexpected type %T", name, m.Build())
		}
		return func(_ int, in reflect.Value) reflect.Value {
			return reflect.ValueOf(fn.Evaluate(in.Interface().(I)))
		}, nil
	}
	return nil, fmt.Errorf("registry model %s not found", name)
}

func (z *zendMix) buildModels() ([]*zmModel, error) {
	aclOut := func(mask int, in reflect.Value) reflect.Value {
		return reflect.ValueOf(aclAllows(z.aclRulesAt(mask), in.Interface().(pkt.Header)))
	}
	rmOut := func(_ int, in reflect.Value) reflect.Value {
		r, ok := rmApply(z.rm, in.Interface().(routemap.Route))
		return reflect.ValueOf(zen.Opt[routemap.Route]{Ok: ok, Val: r})
	}
	// nets/ecmp.hash is left out: the subsumption index BDD-compiles
	// every answered predicate, each compile on its wide multiplies runs
	// to the poll budget, and the index never frees those nodes, so the
	// process grows by tens of MB per second.
	models := []*zmModel{
		{name: "bench/acl", weight: 8, input: headerType, output: aclOut, pred: z.aclPred},
		{name: "bench/rm", weight: 4, input: routeType, output: rmOut, pred: z.rmPred},
		{name: "nets/acl.allow", weight: 3, input: headerType, pred: z.aclPred},
		{name: "nets/routemap.match-clause", weight: 2, input: routeType, pred: clausePred},
		{name: "nets/nat.apply", weight: 3, input: headerType, pred: natPred},
	}
	var err error
	if models[2].output, err = registryOutput[pkt.Header, bool]("nets/acl.allow"); err != nil {
		return nil, err
	}
	if models[3].output, err = registryOutput[routemap.Route, uint16]("nets/routemap.match-clause"); err != nil {
		return nil, err
	}
	if models[4].output, err = registryOutput[pkt.Header, pkt.Header]("nets/nat.apply"); err != nil {
		return nil, err
	}
	return models, nil
}

// buildPool draws the predicate pool. Zipf rank r draws pool[r], and
// the pool's layout is fixed: every block of 20 entries holds each model
// in proportion to its weight, the backend rotates per block, and every
// fifth block strengthens earlier entries of the same model and kind (an
// invalid or unsat answer for the original then answers the derived one
// through the subsumption tier). The seed draws only the constants, so
// the traffic mix per popularity rank is the same for every seed.
func (z *zendMix) buildPool(rng *rand.Rand) {
	type slot struct {
		m *zmModel
		j int // the slot's index among its model's slots
	}
	var slots []slot
	for _, m := range z.models {
		for j := 0; j < m.weight; j++ {
			slots = append(slots, slot{m, j})
		}
	}
	backends := []string{"bdd", "sat", "auto"}
	seen := map[string][]*zmEntry{}
	z.aclByPred = map[string]*zmEntry{}
	for i := 0; i < zmPoolSize; i++ {
		block, sl := i/len(slots), slots[i%len(slots)]
		m := sl.m
		e := &zmEntry{m: m, kind: "find", backend: backends[block%len(backends)]}
		if (sl.j+block)%5 < 2 {
			e.kind = "verify" // two in five of each model's entries
		}
		key := m.name + e.kind
		if earlier := seen[key]; block%(100/zmDerivedPct) == 100/zmDerivedPct-1 && len(earlier) > 0 {
			e.pred = all(earlier[rng.Intn(len(earlier))].pred, m.pred(rng, false))
		} else {
			e.pred = m.pred(rng, e.kind == "verify")
		}
		seen[key] = append(seen[key], e)
		e.body = e.request(m.name, e.backend)
		z.pool = append(z.pool, e)
		if m.name == "bench/acl" {
			z.aclByPred[e.kind+string(mustJSON(e.pred))] = e
		}
	}
}

// request encodes the entry as a /v1/query body. Route-typed models set
// list_bound explicitly: with it unset, the subsumption tier compiles
// them at list bound 0 while the solver uses zen's default of 3, and
// answers wrong (a witness that needs a list makes its predicate false
// at bound 0, so it "implies" every later query).
func (e *zmEntry) request(model, backend string) []byte {
	req := serve.Request{Model: model, Kind: e.kind, Backend: backend, Predicate: mustJSON(e.pred)}
	if e.m.input == routeType {
		req.ListBound = routemap.Depth
	}
	return mustJSON(req)
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Predicate templates. Find predicates constrain the output and a slice
// of the input; verify properties say "inputs in this slice map to this
// output" (usually invalid, sometimes valid).

func ipSlice(rng *rand.Rand, field string, near uint32) *pnode {
	span := uint32(1) << (8 + rng.Intn(17))
	lo := near &^ (span - 1)
	return all(cmpNum("in."+field, "ge", uint64(lo)), cmpNum("in."+field, "le", uint64(lo+span-1)))
}

func (z *zendMix) aclPred(rng *rand.Rand, verify bool) *pnode {
	r := z.aclBase[rng.Intn(len(z.aclBase))]
	slice := ipSlice(rng, "DstIP", r.DstPfx.Address|rng.Uint32()&^prefixMask(r.DstPfx))
	if rng.Intn(2) == 0 {
		slice = all(slice, cmpNum("in.Protocol", "eq", uint64([]uint8{1, 6, 17}[rng.Intn(3)])))
	}
	out := cmpBool("out", rng.Intn(2) == 0)
	if verify {
		return anyOf(not(slice), out)
	}
	return all(out, slice)
}

func (z *zendMix) rmPred(rng *rand.Rand, verify bool) *pnode {
	c := z.rm[rng.Intn(len(z.rm))]
	near := rng.Uint32()
	if len(c.MatchPrefixes) > 0 {
		near = c.MatchPrefixes[0].Pfx.Address | near&^prefixMask(c.MatchPrefixes[0].Pfx)
	}
	slice := all(ipSlice(rng, "Prefix", near), cmpNum("in.PrefixLen", "eq", uint64(8+rng.Intn(24))))
	out := cmpBool("out.Ok", rng.Intn(2) == 0)
	if verify {
		return anyOf(not(slice), out)
	}
	return all(out, slice)
}

func clausePred(rng *rand.Rand, verify bool) *pnode {
	slice := all(cmpNum("in.PrefixLen", "ge", uint64(rng.Intn(33))), cmpNum("in.Prefix", "ge", uint64(rng.Uint32())))
	out := cmpNum("out", "eq", uint64(rng.Intn(5)))
	if verify {
		return anyOf(not(slice), out)
	}
	return all(out, slice)
}

func natPred(rng *rand.Rand, verify bool) *pnode {
	near := []uint32{pkt.IP(192, 168, 0, 0), pkt.IP(203, 0, 113, 0), rng.Uint32()}[rng.Intn(3)] | rng.Uint32()&0xffff
	field := []string{"SrcIP", "DstIP"}[rng.Intn(2)]
	slice := ipSlice(rng, field, near)
	if verify {
		return anyOf(not(slice), cmpRef("out."+field, "eq", "in."+field))
	}
	return all(cmpNum("out.SrcPort", "ge", uint64(rng.Intn(20000))), slice)
}

// run drives the clients until the measured time is up. A traced run
// alternates untraced and traced time slices.
func (z *zendMix) run(rep *report) {
	st0, solves0 := z.srv.Stats(), zen.GlobalStats().Snapshot().Solves
	start := time.Now()
	deadline := start.Add(z.cfg.seconds)
	var wg sync.WaitGroup
	lats := make([][]float64, zmClients)
	failed := make([]int64, zmClients)
	seq := z.newSeq(z.cfg.seed)
	for c := 0; c < zmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				traced := z.cfg.trace && int(time.Since(start)/zmSlice)%2 == 1
				t0 := time.Now()
				resp, up, handler, err := z.request(seq)
				lat := ms(time.Since(t0))
				if up != nil && traced {
					z.mu.Lock()
					z.tr.updateMS = append(z.tr.updateMS, up.ElapsedMS)
					z.mu.Unlock()
				}
				if err != nil {
					failed[c]++
					z.mu.Lock()
					rep.note("%v", err)
					z.mu.Unlock()
				}
				lats[c] = append(lats[c], lat)
				z.mu.Lock()
				z.tr.slices(traced, lat, handler, resp)
				z.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rep.wall = time.Since(start)
	for c := range lats {
		rep.latMS = append(rep.latMS, lats[c]...)
		rep.failed += failed[c]
	}
	rep.attempted = int64(len(rep.latMS))
	if z.cfg.trace {
		rep.layers = z.tr.metrics(z.srv.Stats(), st0, zen.GlobalStats().Snapshot().Solves-solves0)
	}
}

// zmSeq is the request sequence the clients take turns on. Pool ranks
// follow the Zipf law through a golden-ratio walk of its cumulative
// distribution, and every zmUpdateN-th request is an update, so every
// stretch of a run carries the same mix of hot, cold and write requests
// whatever the seed. The seed moves where the walk starts and which
// rules the updates flip. (One walk per client would let the clients
// lock into step and coalesce on a share of requests set by the seed.)
type zmSeq struct {
	u0    float64
	flips []int // toggle index each update flips, reused cyclically
	n     atomic.Int64
}

func (z *zendMix) newSeq(seed int64) *zmSeq {
	rng := rand.New(rand.NewSource(seed))
	s := &zmSeq{u0: rng.Float64(), flips: make([]int, 64)}
	for i := range s.flips {
		s.flips[i] = rng.Intn(len(z.toggle))
	}
	return s
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 under weights
// (v+r)^-s, the law rand.Zipf draws from.
func zipfCDF(n int, s, v float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += math.Pow(v+float64(r), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// request issues the next request of a client: a /v1/update delta or a
// query drawn from the pool.
func (z *zendMix) request(s *zmSeq) (*zmResponse, *zmUpdate, time.Duration, error) {
	i := s.n.Add(1)
	if i%zmUpdateN == 0 {
		up, d, err := z.update(s.flips[int(i/zmUpdateN)%len(s.flips)])
		return nil, up, d, err
	}
	u := s.u0 + float64(i)*phi
	u -= math.Floor(u)
	resp, d, err := z.query(z.pool[sort.SearchFloat64s(z.cdf, u)])
	return resp, nil, d, err
}

type zmResponse struct {
	Verdict    string                     `json:"verdict"`
	Provenance string                     `json:"provenance"`
	Model      map[string]json.RawMessage `json:"model"`
	Predicate  json.RawMessage            `json:"predicate"`
	ElapsedMS  float64                    `json:"elapsed_ms"`
}

type zmUpdate struct {
	Verdict   string       `json:"verdict"`
	Queries   []zmResponse `json:"queries"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// post serves one request in-process and times the handler.
func (z *zendMix) post(path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest("POST", path, strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	z.h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

func (z *zendMix) query(e *zmEntry) (*zmResponse, time.Duration, error) {
	lo := int(z.done.Load())
	rec, d := z.post("/v1/query", e.body)
	hi := int(z.started.Load())
	var res zmResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
		return nil, d, fmt.Errorf("%s %s: HTTP %d: %s", e.m.name, e.kind, rec.Code, rec.Body.String())
	}
	switch res.Verdict {
	case "sat", "unsat", "valid", "invalid":
	default:
		return nil, d, fmt.Errorf("%s %s: verdict %q", e.m.name, e.kind, res.Verdict)
	}
	if e.m.name != "bench/acl" {
		lo, hi = 0, 0
	}
	z.mu.Lock()
	z.answers = append(z.answers, zmAnswer{e: e, verdict: res.Verdict, witness: res.Model["in"], lo: lo, hi: hi, provenance: res.Provenance})
	z.mu.Unlock()
	return &res, d, nil
}

// update flips one toggle rule's permit bit on the ACL instance. Updates
// are serialized, so each one's delta answers belong to one known state.
func (z *zendMix) update(i int) (*zmUpdate, time.Duration, error) {
	z.updMu.Lock()
	defer z.updMu.Unlock()
	mask := z.masks[len(z.masks)-1] ^ 1<<i
	rule, err := json.Marshal(z.aclRulesAt(mask)[z.toggle[i]])
	if err != nil {
		return nil, 0, err
	}
	body, err := json.Marshal(serve.UpdateRequest{Instance: "bench/acl", Deltas: []serve.Delta{{Op: "modify", Index: z.toggle[i], Rule: rule}}})
	if err != nil {
		return nil, 0, err
	}
	z.mu.Lock()
	z.masks = append(z.masks, mask)
	v := len(z.masks) - 1
	z.mu.Unlock()
	z.started.Add(1)
	rec, d := z.post("/v1/update", body)
	var up zmUpdate
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil || rec.Code != http.StatusOK || up.Verdict != "updated" {
		return nil, d, fmt.Errorf("update: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	z.done.Add(1)
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, q := range up.Queries {
		kind := "find"
		if q.Verdict == "valid" || q.Verdict == "invalid" {
			kind = "verify"
		}
		var pred bytes.Buffer
		if err := json.Compact(&pred, q.Predicate); err != nil {
			return nil, d, fmt.Errorf("update: predicate echo: %v", err)
		}
		e := z.aclByPred[kind+pred.String()]
		if e == nil {
			z.answers = append(z.answers, zmAnswer{verdict: "untracked:" + string(q.Predicate)})
			continue
		}
		z.answers = append(z.answers, zmAnswer{e: e, verdict: q.Verdict, witness: q.Model["in"], lo: v, hi: v, provenance: "delta"})
	}
	return &up, d, nil
}

// check verifies every recorded answer. Sat and invalid answers must
// carry a witness that replays on the model's plain-Go (or interpreter)
// output; unsat and valid answers must match a cold solve on a fresh
// server with the LRU and subsumption off, presolve off, and the other
// solver backend.
func (z *zendMix) check(rep *report) {
	ref := serve.New(serve.Config{Workers: 1, CacheSize: -1})
	defer ref.Shutdown(context.Background())
	refH := ref.Handler()
	refInst := map[int]bool{}
	refVerdict := map[string]string{}
	refOf := func(e *zmEntry, mask int) (string, error) {
		model := e.m.name
		switch model {
		case "bench/acl":
			model = fmt.Sprintf("ref/acl/%d", mask)
			if !refInst[mask] {
				if err := createInstance(refH, model, "acl", z.aclRulesAt(mask)); err != nil {
					return "", err
				}
				refInst[mask] = true
			}
		case "bench/rm":
			model = "ref/rm"
			if !refInst[-1] {
				if err := createInstance(refH, model, "routemap", z.rm); err != nil {
					return "", err
				}
				refInst[-1] = true
			}
		}
		backend := "bdd"
		if e.backend == "bdd" {
			backend = "sat"
		}
		body := e.request(model, backend)
		key := string(body)
		if v, ok := refVerdict[key]; ok {
			return v, nil
		}
		rec := httptest.NewRecorder()
		refH.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(string(body))))
		var res zmResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Provenance != serve.ProvCold {
			return "", fmt.Errorf("reference %s: HTTP %d: %s", model, rec.Code, rec.Body.String())
		}
		refVerdict[key] = res.Verdict
		return res.Verdict, nil
	}
	byProv := map[string]int{}
	for _, a := range z.answers {
		byProv[a.provenance]++
		if a.e == nil {
			rep.wrong++
			rep.note("update returned an answer for an unknown query %s", a.verdict)
			continue
		}
		ok, err := z.answerOK(a, refOf)
		if err != nil {
			rep.failed++
			rep.note("check %s %s: %v", a.e.m.name, a.kind(), err)
			continue
		}
		if !ok {
			rep.wrong++
			rep.note("wrong answer: %s %s %s (%s) %s -> %s", a.e.m.name, a.e.kind, a.e.backend, a.provenance, mustJSON(a.e.pred), a.verdict)
		}
	}
	names := make([]string, 0, len(byProv))
	for p := range byProv {
		names = append(names, p)
	}
	sort.Strings(names)
	var parts []string
	for _, p := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", p, byProv[p]))
	}
	rep.note("checked %d answers (%s) against %d cold references", len(z.answers), strings.Join(parts, " "), len(refVerdict))
	for _, a := range z.answers {
		if a.provenance != "delta" && (a.verdict == "sat" || a.verdict == "invalid") {
			rep.packets++ // a witness packet returned to the client
		}
	}
}

func (a zmAnswer) kind() string { return a.e.kind }

func (z *zendMix) answerOK(a zmAnswer, refOf func(*zmEntry, int) (string, error)) (bool, error) {
	for v := a.lo; v <= a.hi; v++ {
		mask := z.masks[v]
		switch a.verdict {
		case "sat", "invalid":
			if len(a.witness) == 0 {
				return false, nil
			}
			in := reflect.New(a.e.m.input)
			if err := json.Unmarshal(a.witness, in.Interface()); err != nil {
				return false, fmt.Errorf("witness %s: %v", a.witness, err)
			}
			holds, err := a.e.pred.eval(in.Elem(), a.e.m.output(mask, in.Elem()))
			if err != nil {
				return false, err
			}
			if holds == (a.verdict == "sat") != z.cfg.corruptRefs {
				return true, nil
			}
		default:
			want, err := refOf(a.e, mask)
			if err != nil {
				return false, err
			}
			if (want == a.verdict) != z.cfg.corruptRefs {
				return true, nil
			}
		}
	}
	return false, nil
}

// zmTrace accumulates the traced slices' measurements.
type zmTrace struct {
	opMS, handlerMS [2]float64 // by slice kind: untraced, traced
	ops             [2]int
	httpMS          []float64
	doMS            map[string][]float64 // by provenance
	updateMS        []float64
}

func (t *zmTrace) slices(traced bool, lat float64, handler time.Duration, resp *zmResponse) {
	i := 0
	if traced {
		i = 1
	}
	t.ops[i]++
	t.opMS[i] += lat
	t.handlerMS[i] += ms(handler)
	if !traced || resp == nil {
		return
	}
	if t.doMS == nil {
		t.doMS = map[string][]float64{}
	}
	t.httpMS = append(t.httpMS, ms(handler)-resp.ElapsedMS)
	t.doMS[resp.Provenance] = append(t.doMS[resp.Provenance], resp.ElapsedMS)
}

// metrics reads the counters the program exports as deltas from st0 and
// solves0, their values when the measured window opened.
func (t *zmTrace) metrics(st, st0 serve.Stats, solves int64) map[string]float64 {
	st.Queries -= st0.Queries
	st.Subsumed -= st0.Subsumed
	st.Shed -= st0.Shed
	st.DeltaReused -= st0.DeltaReused
	st.DeltaReverified -= st0.DeltaReverified
	hits, misses := st.CacheHits-st0.CacheHits, st.CacheMisses-st0.CacheMisses
	m := map[string]float64{
		"serve.http_ms":          mean(t.httpMS),
		"serve.cached_p50_ms":    median(t.doMS[serve.ProvCached]),
		"serve.subsumed_p50_ms":  median(t.doMS[serve.ProvSubsumed]),
		"serve.cold_p50_ms":      median(t.doMS[serve.ProvCold]),
		"serve.update_p50_ms":    median(t.updateMS),
		"serve.delta_reused_pct": pct(float64(st.DeltaReused), float64(st.DeltaReused+st.DeltaReverified)),
		"serve.cache_hit_pct":    pct(float64(hits), float64(hits+misses)),
		"serve.subsumed_pct":     pct(float64(st.Subsumed), float64(st.Queries)),
		"serve.solves_per_query": float64(solves) / float64(max(st.Queries, 1)),
		"serve.shed_pct":         pct(float64(st.Shed), float64(st.Queries+st.Shed)),
		"trace.unattributed_pct": pct(t.opMS[1]-t.handlerMS[1], t.opMS[1]),
	}
	if t.ops[0] > 0 && t.ops[1] > 0 {
		un := float64(t.ops[0]) / t.opMS[0]
		tr := float64(t.ops[1]) / t.opMS[1]
		m["trace.overhead_pct"] = pct(un-tr, un)
	}
	return m
}
