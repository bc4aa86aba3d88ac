package serve

import (
	"container/list"
	"errors"
	"sync"

	"zen-go/internal/backends"
	"zen-go/internal/bdd"
	"zen-go/internal/cancel"
	"zen-go/internal/core"
	"zen-go/internal/sym"
	"zen-go/zen"
)

// queryKey is the canonical fingerprint of a solver query. The predicate
// is identified by its DAG node pointer: the global builder hash-conses,
// so structurally identical predicates — whatever JSON spelling they
// arrived in — share one pointer, and distinct predicates never collide
// (two different DAGs are two different interned nodes). The remaining
// fields capture everything else that changes the answer.
type queryKey struct {
	model   string
	kind    queryKind
	backend zen.Backend
	cond    *core.Node
	max     int
	bound   int
	// gen is the instance generation the query ran against; 0 for
	// registry models. Including it keys every /v1/update to a fresh
	// cache line — verdicts about an old rule set never answer queries
	// about the new one.
	gen uint64
}

type queryKind uint8

const (
	kindFind queryKind = iota
	kindFindAll
	kindVerify
	kindEvaluate
)

func (k queryKind) String() string {
	switch k {
	case kindFind:
		return "find"
	case kindFindAll:
		return "findall"
	case kindVerify:
		return "verify"
	case kindEvaluate:
		return "evaluate"
	}
	return "?"
}

// lruCache is a mutex-guarded LRU over completed query responses.
// Cancelled and failed queries are never inserted, so a hit is always a
// full answer.
type lruCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[queryKey]*list.Element
}

type lruEntry struct {
	key queryKey
	res *Response
}

func newLRU(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), m: make(map[queryKey]*list.Element)}
}

func (c *lruCache) get(k queryKey) (*Response, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

func (c *lruCache) put(k queryKey, res *Response) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&lruEntry{key: k, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// entries snapshots the cache contents, most recent first (used by the
// shutdown snapshot writer).
func (c *lruCache) entries() []*lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*lruEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry))
	}
	return out
}

// --- Subsumption index ---
//
// The LRU above answers only pointer-identical predicates. The
// subsumption index answers *implied* ones: a cached UNSAT for P proves
// any Q with Q ⇒ P unsat, and a cached witness for P satisfies any Q
// with P ⇒ Q. Both implications are decided on a BDD — each (model,
// bound, generation) triple keeps a small private manager where every
// distinct predicate compiles once, and an implication test is one
// joint walk of two BDDs that builds no node (bdd.Manager.Leq).
//
// The index deliberately outlives LRU eviction: result entries are tiny
// (a ref plus a witness map), so a predicate squeezed out of the LRU by
// churn still answers future queries it implies. Eviction here is a
// bounded FIFO per world.
//
// Soundness notes:
//   - Entries record satisfiability of a condition DAG, which is
//     backend-independent, so a SAT-backend result may answer a
//     BDD-backend query and vice versa.
//   - find and verify share the index (verify conditions arrive
//     pre-negated); the verdict is re-phrased per kind at lookup.
//   - findall and evaluate never consult or feed the index.
//   - Model instances bump their generation on every /v1/update, which
//     keys them to a fresh world: verdicts about a previous rule set
//     must never answer queries about the current one.

// subsumeBudgetPolls bounds the BDD work a subsumption compile may do.
// The manager polls its interrupt every 1024 cache misses, so this
// allows on the order of a hundred thousand node operations — plenty for
// service predicates, a quick abort for the documented BDD blowups
// (demo/square32's 32-bit multiply), which simply fall through to the
// normal solve path.
const subsumeBudgetPolls = 96

// maxSubsumeEntries bounds each world's entry lists.
const maxSubsumeEntries = 512

var errSubsumeBudget = errors.New("subsumption compile budget exhausted")

type subWorldKey struct {
	model string
	gen   uint64
	bound int
}

type subEntry struct {
	ref bdd.Ref
	// sat entries carry the witness (encoded as a Response model map)
	// and the original solve cost; unsat entries only the ref.
	model  map[string]any
	solves int64
}

// subWorld is the per-(model, generation, bound) compilation context.
type subWorld struct {
	alg   *backends.BDD
	env   sym.Env[bdd.Ref]
	refs  map[*core.Node]bdd.Ref
	unsat []subEntry
	sat   []subEntry
}

// subsumeStore guards all subsumption worlds with one mutex: the BDD
// managers are not concurrency-safe, and lookups are cheap relative to
// the solves they replace.
type subsumeStore struct {
	mu     sync.Mutex
	worlds map[subWorldKey]*subWorld
}

func newSubsumeStore() *subsumeStore {
	return &subsumeStore{worlds: make(map[subWorldKey]*subWorld)}
}

// world returns (building if needed) the compilation context for a
// model's argument variables.
func (st *subsumeStore) world(key subWorldKey, args []*core.Node) *subWorld {
	if w, ok := st.worlds[key]; ok {
		return w
	}
	w := &subWorld{
		alg:  backends.NewBDD(),
		env:  sym.Env[bdd.Ref]{},
		refs: make(map[*core.Node]bdd.Ref),
	}
	for _, a := range args {
		in := sym.Fresh(w.alg, a.Type, key.bound, a.Name)
		w.env[a.VarID] = in.Val
	}
	st.worlds[key] = w
	return w
}

// compile evaluates a condition DAG to a BDD ref in this world, bounded
// by the poll budget. A budget abort leaves the world usable (the
// manager's node store is append-only and consistent at every poll).
func (w *subWorld) compile(cond *core.Node) (ref bdd.Ref, err error) {
	if r, ok := w.refs[cond]; ok {
		return r, nil
	}
	defer cancel.Trap(&err)
	polls := 0
	chk := cancel.Check(func() error {
		polls++
		if polls > subsumeBudgetPolls {
			return errSubsumeBudget
		}
		return nil
	})
	w.alg.SetInterrupt(chk)
	defer w.alg.SetInterrupt(nil)
	v := sym.EvalCheck(w.alg, cond, w.env, chk)
	w.refs[cond] = v.Bit
	return v.Bit, nil
}

// lookup tries to answer a find/verify query by implication. UNSAT
// entries are consulted before SAT entries: when both could apply the
// definite-emptiness proof wins (and if the index is consistent they
// cannot genuinely conflict — Q ⇒ P_unsat and P_sat ⇒ Q would make
// P_sat's witness a member of the empty Q).
func (st *subsumeStore) lookup(key subWorldKey, args []*core.Node, cond *core.Node, kind queryKind) (*Response, bool) {
	if kind != kindFind && kind != kindVerify {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	w, ok := st.worlds[key]
	if !ok || (len(w.unsat) == 0 && len(w.sat) == 0) {
		return nil, false
	}
	q, err := w.compile(cond)
	if err != nil {
		return nil, false
	}
	// Leq builds no nodes: a world lives as long as its generation (a
	// registry model's, as long as the process), and anything a check
	// built would stay in its node store.
	man := w.alg.Man
	for _, e := range w.unsat {
		if man.Leq(q, e.ref) {
			return subsumedResponse(kind, false, nil, e.solves), true
		}
	}
	for _, e := range w.sat {
		if man.Leq(e.ref, q) {
			return subsumedResponse(kind, true, e.model, e.solves), true
		}
	}
	return nil, false
}

// insert records a completed find/verify answer for future implication
// checks. Failures are silent: an over-budget compile just means this
// predicate will not subsume others.
func (st *subsumeStore) insert(key subWorldKey, args []*core.Node, cond *core.Node, res *Response) {
	var sat bool
	switch res.Status {
	case "sat", "invalid":
		sat = true
	case "unsat", "valid":
	default:
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	w := st.world(key, args)
	ref, err := w.compile(cond)
	if err != nil {
		return
	}
	e := subEntry{ref: ref, solves: res.SolveCount()}
	if sat {
		e.model = res.Model
		w.sat = appendBounded(w.sat, e)
	} else {
		w.unsat = appendBounded(w.unsat, e)
	}
}

// seed installs an entry with an already-compiled ref (snapshot load).
func (st *subsumeStore) seed(key subWorldKey, args []*core.Node, ref bdd.Ref, sat bool, model map[string]any, solves int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := st.world(key, args)
	e := subEntry{ref: ref, model: model, solves: solves}
	if sat {
		w.sat = appendBounded(w.sat, e)
	} else {
		w.unsat = appendBounded(w.unsat, e)
	}
}

func appendBounded(s []subEntry, e subEntry) []subEntry {
	for _, have := range s {
		if have.ref == e.ref {
			return s
		}
	}
	if len(s) >= maxSubsumeEntries {
		copy(s, s[1:])
		s = s[:len(s)-1]
	}
	return append(s, e)
}

// invalidate drops every world of a model (all generations and bounds):
// called by /v1/update, whose new rule set makes old verdicts stale.
func (st *subsumeStore) invalidate(model string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for k := range st.worlds {
		if k.model == model {
			delete(st.worlds, k)
		}
	}
}

// subsumedResponse re-phrases a transferred satisfiability verdict for
// the query's kind.
func subsumedResponse(kind queryKind, sat bool, model map[string]any, solves int64) *Response {
	res := &Response{Provenance: ProvSubsumed, Counters: &Counters{Solves: solves}}
	switch {
	case kind == kindFind && sat:
		res.Status, res.Model = "sat", model
	case kind == kindFind:
		res.Status = "unsat"
	case sat:
		res.Status, res.Model = "invalid", model
	default:
		res.Status = "valid"
	}
	return res
}
