package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"zen-go/analyses/ap"
	"zen-go/internal/core"
	"zen-go/internal/obs"
	"zen-go/nets/acl"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

// Mutable model instances: where the registry holds fixed models
// compiled into the binary, an instance is created over the API from a
// rule list and mutated in place by /v1/update deltas. The service
// keeps, per instance, the set of find/verify queries it has answered;
// an update re-verifies only the queries whose footprint intersects the
// part of the input space the delta actually changed, and re-stamps
// everything else from cache with "reused": true provenance.
//
// Two families exist:
//
//   - "acl" (rules are nets/acl.Rule): the input (pkt.Header) is
//     list-free, so the exact-set path applies. The instance carries
//     its permit set from one generation to the next, so an update
//     builds one model DAG and evaluates one set: the new permit set.
//     The change set is the symmetric difference of the carried set and
//     the new one; each query's rule-independent footprint
//     rel(Q) = {h : Q(h,true) ≠ Q(h,false)} is tested for disjointness
//     against it, and dirty re-verification runs on the new permit set
//     — zero solver invocations either way. Affected equivalence
//     classes are counted with analyses/ap atoms over the delta-touched
//     rules' match sets; they only fill the report.
//
//   - "routemap" (rules are nets/routemap.Clause): routes carry lists,
//     which state sets cannot represent, so the generic path applies:
//     a sat verdict whose cached witness still satisfies the new model
//     (one concrete interpreter pass) is reused; everything else
//     re-solves.

// maxTracked bounds the per-instance tracked-query list (FIFO).
const maxTracked = 128

// InstanceRequest creates a mutable model instance (POST /v1/instances).
type InstanceRequest struct {
	Name   string            `json:"name"`
	Family string            `json:"family"` // "acl" or "routemap"
	Rules  []json.RawMessage `json:"rules"`
}

// Delta is one rule edit. Op "insert" places Rule at Index (append when
// Index == current length), "delete" removes the rule at Index, and
// "modify" replaces it.
type Delta struct {
	Op    string          `json:"op"`
	Index int             `json:"index"`
	Rule  json.RawMessage `json:"rule,omitempty"`
}

// UpdateRequest applies deltas to an instance (POST /v1/update).
type UpdateRequest struct {
	Instance string  `json:"instance"`
	Deltas   []Delta `json:"deltas"`
}

// UpdateResponse is the envelope for instance creation and update. Its
// verdict is "created" or "updated"; Queries carries the tracked
// queries' post-update answers, each a standard Response with
// provenance "delta" and Reused marking the ones answered without
// re-verification.
type UpdateResponse struct {
	APIVersion string `json:"api_version"`
	RequestID  string `json:"request_id,omitempty"`
	Status     string `json:"verdict"`
	Instance   string `json:"instance,omitempty"`
	Family     string `json:"family,omitempty"`
	Generation uint64 `json:"generation"`
	Rules      int    `json:"rules"`
	// DirtyClasses counts the atomic-predicate equivalence classes the
	// update touched, out of TotalClasses over the delta'd rules
	// ("acl" family only; zero for families without the set path).
	DirtyClasses int         `json:"dirty_classes"`
	TotalClasses int         `json:"total_classes,omitempty"`
	Reused       int         `json:"reused"`
	Reverified   int         `json:"reverified"`
	Queries      []*Response `json:"queries,omitempty"`
	ElapsedMS    float64     `json:"elapsed_ms"`
	Err          *ErrorInfo  `json:"error,omitempty"`

	httpStatus int
}

// HTTPStatus returns the HTTP status the response should be served with.
func (r *UpdateResponse) HTTPStatus() int {
	if r.httpStatus != 0 {
		return r.httpStatus
	}
	return http.StatusOK
}

func failUpdate(httpStatus int, code, format string, args ...any) *UpdateResponse {
	return &UpdateResponse{
		APIVersion: APIVersion,
		Status:     "error",
		Err:        &ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)},
		httpStatus: httpStatus,
	}
}

// tracked is one find/verify query the instance has answered and keeps
// current across updates.
type tracked struct {
	raw     json.RawMessage // compacted predicate JSON
	kind    queryKind
	backend zen.Backend
	bound   int

	// Last answer.
	verdict string
	model   map[string]any // encoded witness (sat/invalid)
	witness zen.RawModel   // raw witness for concrete recheck
	solves  int64          // solver cost of the original answer

	// Exact-set footprint ("acl" family; setOK false on the generic
	// path). qTrue/qFalse compile the predicate with the model output
	// pinned to true/false — both rule-independent, so they survive
	// every update — and rel is their symmetric difference: the inputs
	// where the query's truth depends on the model at all.
	setOK         bool
	qTrue, qFalse zen.StateSet[pkt.Header]
	rel           zen.StateSet[pkt.Header]
}

// instance is one mutable model.
type instance struct {
	name   string
	family string

	mu      sync.RWMutex
	gen     uint64
	model   zen.Queryable
	aclRule []acl.Rule                // "acl" family rule list
	rmRule  []routemap.Clause         // "routemap" family rule list
	w       *zen.World                // state-set world ("acl" family)
	allow   *zen.StateSet[pkt.Header] // permit set of aclRule; nil until the first update
	tracked []*tracked
}

// view returns the instance's current compiled model and generation.
func (in *instance) view() (zen.Queryable, uint64) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.model, in.gen
}

// instance resolves a named instance, nil when unknown.
func (s *Server) instance(name string) *instance {
	s.instMu.RLock()
	defer s.instMu.RUnlock()
	return s.instances[name]
}

// --- creation ---

func parseACLRules(raws []json.RawMessage) ([]acl.Rule, error) {
	out := make([]acl.Rule, len(raws))
	for i, raw := range raws {
		if err := decodeRule(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return out, nil
}

func parseRMClauses(raws []json.RawMessage) ([]routemap.Clause, error) {
	out := make([]routemap.Clause, len(raws))
	for i, raw := range raws {
		if err := decodeRule(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("clause %d: %w", i, err)
		}
	}
	return out, nil
}

// decodeRule strictly decodes one rule; unknown fields are errors so a
// typo'd match field fails loudly instead of silently widening a rule.
// Prefixes are checked too: one that decodes but would change what the
// rule matches is a *prefixError.
func decodeRule(raw json.RawMessage, into any) error {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	switch r := into.(type) {
	case *acl.Rule:
		if err := checkPrefix("SrcPfx", r.SrcPfx); err != nil {
			return err
		}
		return checkPrefix("DstPfx", r.DstPfx)
	case *routemap.Clause:
		for i, m := range r.MatchPrefixes {
			if err := checkPrefix(fmt.Sprintf("MatchPrefixes[%d].Pfx", i), m.Pfx); err != nil {
				return err
			}
		}
	}
	return nil
}

// prefixError is a rule prefix that would silently change what the rule
// matches: a length over 32 zeroes the mask (the rule matches every
// address or none), and host bits make Contains false everywhere. Create
// and update both answer it with bad_rule.
type prefixError struct {
	field  string
	prefix pkt.Prefix
}

func (e *prefixError) Error() string {
	if e.prefix.Length > 32 {
		return fmt.Sprintf("%s: prefix length %d exceeds 32", e.field, e.prefix.Length)
	}
	return fmt.Sprintf("%s: prefix %s has host bits set", e.field, e.prefix)
}

func checkPrefix(field string, p pkt.Prefix) error {
	if p.Length > 32 || p.Address&^p.Mask() != 0 {
		return &prefixError{field: field, prefix: p}
	}
	return nil
}

func buildACLModel(rules []acl.Rule) *zen.Fn[pkt.Header, bool] {
	a := &acl.ACL{Rules: append([]acl.Rule(nil), rules...)}
	return zen.Func(func(h zen.Value[pkt.Header]) zen.Value[bool] {
		return a.Allow(h)
	})
}

func buildRMModel(clauses []routemap.Clause) zen.Queryable {
	rm := &routemap.RouteMap{Clauses: append([]routemap.Clause(nil), clauses...)}
	return zen.Func(func(r zen.Value[routemap.Route]) zen.Value[zen.Opt[routemap.Route]] {
		return rm.Apply(r)
	})
}

// CreateInstance registers a new mutable instance. It is the direct
// entry point behind POST /v1/instances.
func (s *Server) CreateInstance(ctx context.Context, req *InstanceRequest) *UpdateResponse {
	start := time.Now()
	res := s.createInstance(req)
	res.APIVersion = APIVersion
	res.RequestID = RequestIDFrom(ctx)
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res
}

func (s *Server) createInstance(req *InstanceRequest) *UpdateResponse {
	if req.Name == "" {
		return failUpdate(http.StatusBadRequest, ErrBadRequest, "instance needs a name")
	}
	if _, taken := s.models[req.Name]; taken {
		return failUpdate(http.StatusConflict, ErrInstanceExists, "name %q is a registry model", req.Name)
	}
	in := &instance{name: req.Name, family: req.Family}
	switch req.Family {
	case "acl":
		rules, err := parseACLRules(req.Rules)
		if err != nil {
			return failUpdate(http.StatusBadRequest, ErrBadRule, "%v", err)
		}
		in.aclRule = rules
		in.model = buildACLModel(rules)
		in.w = zen.NewWorld()
	case "routemap":
		clauses, err := parseRMClauses(req.Rules)
		if err != nil {
			return failUpdate(http.StatusBadRequest, ErrBadRule, "%v", err)
		}
		in.rmRule = clauses
		in.model = buildRMModel(clauses)
	default:
		return failUpdate(http.StatusBadRequest, ErrUnknownFamily, "unknown family %q (want acl or routemap)", req.Family)
	}
	s.instMu.Lock()
	if _, taken := s.instances[req.Name]; taken {
		s.instMu.Unlock()
		return failUpdate(http.StatusConflict, ErrInstanceExists, "instance %q already exists", req.Name)
	}
	s.instances[req.Name] = in
	s.instMu.Unlock()
	return &UpdateResponse{
		Status:   "created",
		Instance: in.name,
		Family:   in.family,
		Rules:    len(req.Rules),
	}
}

// Instances lists the current instances (GET /v1/instances).
func (s *Server) Instances() []map[string]any {
	s.instMu.RLock()
	names := make([]string, 0, len(s.instances))
	for name := range s.instances {
		names = append(names, name)
	}
	s.instMu.RUnlock()
	sort.Strings(names)
	out := make([]map[string]any, 0, len(names))
	for _, name := range names {
		in := s.instance(name)
		if in == nil {
			continue
		}
		in.mu.RLock()
		out = append(out, map[string]any{
			"name":       in.name,
			"family":     in.family,
			"generation": in.gen,
			"rules":      in.ruleCountLocked(),
			"tracked":    len(in.tracked),
		})
		in.mu.RUnlock()
	}
	return out
}

func (in *instance) ruleCountLocked() int {
	if in.family == "acl" {
		return len(in.aclRule)
	}
	return len(in.rmRule)
}

// --- query tracking ---

// track records a completed cold find/verify against an instance so the
// next update can re-stamp or re-verify it. Called from the execution
// path; bounded FIFO.
func (in *instance) track(req *Request, q *query, res *Response) {
	switch res.Status {
	case "sat", "unsat", "valid", "invalid":
	default:
		return
	}
	if q.key.kind != kindFind && q.key.kind != kindVerify {
		return
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, req.Predicate); err != nil {
		return
	}
	raw := json.RawMessage(buf.Bytes())
	in.mu.Lock()
	defer in.mu.Unlock()
	if q.gen != in.gen {
		return // answered against a superseded generation
	}
	for _, t := range in.tracked {
		if t.kind == q.key.kind && t.backend == q.key.backend && t.bound == q.key.bound && string(t.raw) == string(raw) {
			return
		}
	}
	t := &tracked{
		raw:     raw,
		kind:    q.key.kind,
		backend: q.key.backend,
		bound:   q.key.bound,
		verdict: res.Status,
		model:   res.Model,
		solves:  res.SolveCount(),
	}
	t.witness = witnessEnv(q.args, res.Model)
	if in.family == "acl" {
		t.setOK = in.compileFootprint(t)
	}
	if len(in.tracked) >= maxTracked {
		in.tracked = in.tracked[1:]
	}
	in.tracked = append(in.tracked, t)
}

// compileFootprint builds the query's rule-independent sets. The
// predicate is compiled twice with the model output pinned to a
// constant; any reference to "in" binds to the set variable.
func (in *instance) compileFootprint(t *tracked) bool {
	b := zen.Builder()
	compile := func(out bool) (s zen.StateSet[pkt.Header], ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		s = zen.SetOf(in.w, func(h zen.Value[pkt.Header]) zen.Value[bool] {
			r := &resolver{args: []*core.Node{h.Raw()}, out: b.BoolConst(out)}
			cond, err := compilePredicate(t.raw, r)
			if err != nil {
				panic(err)
			}
			if t.kind == kindVerify {
				cond = b.Not(cond)
			}
			return zen.Wrap[bool](cond)
		})
		return s, true
	}
	var ok bool
	if t.qTrue, ok = compile(true); !ok {
		return false
	}
	if t.qFalse, ok = compile(false); !ok {
		return false
	}
	t.rel = symDiff(t.qTrue, t.qFalse)
	return true
}

// symDiff returns (a ∖ b) ∪ (b ∖ a).
func symDiff(a, b zen.StateSet[pkt.Header]) zen.StateSet[pkt.Header] {
	return a.Minus(b).Union(b.Minus(a))
}

// witnessEnv rebuilds the raw solver model from its encoded form, nil
// when there is no witness or it fails to round-trip.
func witnessEnv(args []*core.Node, model map[string]any) zen.RawModel {
	if model == nil {
		return nil
	}
	env := make(zen.RawModel, len(args))
	for i, a := range args {
		enc, ok := model[argName(i, len(args))]
		if !ok {
			return nil
		}
		raw, err := json.Marshal(enc)
		if err != nil {
			return nil
		}
		v, err := decodeValue(a.Type, raw)
		if err != nil {
			return nil
		}
		env[a.VarID] = v
	}
	return env
}

// --- update ---

// DoUpdate applies rule deltas to an instance, re-verifying only the
// tracked queries whose footprint the deltas touched. It is the direct
// entry point behind POST /v1/update.
func (s *Server) DoUpdate(ctx context.Context, req *UpdateRequest) *UpdateResponse {
	start := time.Now()
	res := s.doUpdate(ctx, req)
	res.APIVersion = APIVersion
	res.RequestID = RequestIDFrom(ctx)
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res
}

func (s *Server) doUpdate(ctx context.Context, req *UpdateRequest) *UpdateResponse {
	if s.draining.Load() {
		return failUpdate(http.StatusServiceUnavailable, ErrDraining, "server is shutting down")
	}
	in := s.instance(req.Instance)
	if in == nil {
		return failUpdate(http.StatusNotFound, ErrUnknownInstance, "unknown instance %q", req.Instance)
	}
	if len(req.Deltas) == 0 {
		return failUpdate(http.StatusBadRequest, ErrBadDelta, "update needs at least one delta")
	}
	in.mu.Lock()
	defer in.mu.Unlock()

	var res *UpdateResponse
	var err error
	if in.family == "acl" {
		res, err = s.updateACL(in, req.Deltas)
	} else {
		res, err = s.updateRM(ctx, in, req.Deltas)
	}
	if err != nil {
		code := ErrBadDelta
		var pe *prefixError
		if errors.As(err, &pe) {
			code = ErrBadRule
		}
		return failUpdate(http.StatusBadRequest, code, "%v", err)
	}
	s.count(obs.ServeStats{Updates: 1, DeltaReused: int64(res.Reused), DeltaReverified: int64(res.Reverified)})
	// Old-generation subsumption worlds are now garbage; drop them all
	// (the new generation's world rebuilds on demand).
	s.subsume.invalidate(in.name)
	return res
}

// applyDeltas edits a rule list generically.
func applyDeltas[R any](rules []R, deltas []Delta, decode func(json.RawMessage, *R) error) ([]R, error) {
	out := append([]R(nil), rules...)
	for i, d := range deltas {
		switch d.Op {
		case "insert":
			if d.Index < 0 || d.Index > len(out) {
				return nil, fmt.Errorf("delta %d: insert index %d out of range [0,%d]", i, d.Index, len(out))
			}
			var r R
			if err := decode(d.Rule, &r); err != nil {
				return nil, fmt.Errorf("delta %d: %w", i, err)
			}
			out = append(out[:d.Index], append([]R{r}, out[d.Index:]...)...)
		case "delete":
			if d.Index < 0 || d.Index >= len(out) {
				return nil, fmt.Errorf("delta %d: delete index %d out of range [0,%d)", i, d.Index, len(out))
			}
			out = append(out[:d.Index], out[d.Index+1:]...)
		case "modify":
			if d.Index < 0 || d.Index >= len(out) {
				return nil, fmt.Errorf("delta %d: modify index %d out of range [0,%d)", i, d.Index, len(out))
			}
			var r R
			if err := decode(d.Rule, &r); err != nil {
				return nil, fmt.Errorf("delta %d: %w", i, err)
			}
			out[d.Index] = r
		default:
			return nil, fmt.Errorf("delta %d: unknown op %q (want insert/delete/modify)", i, d.Op)
		}
	}
	return out, nil
}

// touchedRules collects the rules a delta list references, old and new:
// the deleted/modified rules of the old list plus the inserted/modified
// rules of the new one. Their match sets are the predicates whose atoms
// partition the affected header space.
func touchedACLRules(old []acl.Rule, deltas []Delta) []acl.Rule {
	var out []acl.Rule
	for _, d := range deltas {
		if (d.Op == "delete" || d.Op == "modify") && d.Index >= 0 && d.Index < len(old) {
			out = append(out, old[d.Index])
		}
		if (d.Op == "insert" || d.Op == "modify") && len(d.Rule) > 0 {
			var r acl.Rule
			if decodeRule(d.Rule, &r) == nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// updateACL is the exact-set delta path. Everything here is state-set
// algebra: no solver is invoked, for reused and re-verified queries
// alike. Caller holds in.mu.
func (s *Server) updateACL(in *instance, deltas []Delta) (*UpdateResponse, error) {
	newRules, err := applyDeltas(in.aclRule, deltas, func(raw json.RawMessage, r *acl.Rule) error { return decodeRule(raw, r) })
	if err != nil {
		return nil, err
	}
	newModel := buildACLModel(newRules)
	// The exact change set: headers whose permit/deny decision differs.
	// The old permit set is carried from the previous update, so only
	// the new one is evaluated, from the DAG the new model just built.
	allow := zen.SolutionSet(in.w, newModel)
	changed := symDiff(in.permits(), allow)

	// Dirty equivalence classes: atoms of the delta-touched rules'
	// match sets, counted against the change set.
	var dirty, total int
	if touched := touchedACLRules(in.aclRule, deltas); len(touched) > 0 {
		preds := make([]zen.StateSet[pkt.Header], len(touched))
		for i, r := range touched {
			rule := r
			preds[i] = zen.SetOf(in.w, func(h zen.Value[pkt.Header]) zen.Value[bool] {
				return rule.Matches(h)
			})
		}
		atoms := ap.Compute(in.w, preds)
		dirty, total = len(atoms.Touching(changed)), atoms.NumAtoms()
	}

	newGen := in.gen + 1
	res := &UpdateResponse{
		Status:       "updated",
		Instance:     in.name,
		Family:       in.family,
		Generation:   newGen,
		Rules:        len(newRules),
		DirtyClasses: dirty,
		TotalClasses: total,
	}

	for _, t := range in.tracked {
		reused := t.setOK && t.rel.Disjoint(changed)
		if !reused && t.setOK {
			// Satisfying inputs of Q under the new rules:
			// (allow ∩ Q[out:=true]) ∪ (allowᶜ ∩ Q[out:=false]).
			sat := allow.Intersect(t.qTrue).Union(allow.Complement().Intersect(t.qFalse))
			t.verdict, t.model = setVerdict(t.kind, sat)
			t.witness = nil
			t.solves = 0
		} else if !reused && !t.setOK {
			// Footprint compilation failed at track time; the only
			// sound answer is a fresh solve on the new model.
			r := s.resolveTracked(context.Background(), newModel, t)
			applyResolved(t, r)
		}
		res.Queries = append(res.Queries, trackedResponse(in.name, t, reused))
		if reused {
			res.Reused++
		} else {
			res.Reverified++
		}
	}

	in.aclRule = newRules
	in.model = newModel
	in.allow = &allow
	in.gen = newGen
	s.primeCache(in, newModel, newGen, res.Queries)
	return res, nil
}

// permits returns the permit set of the current rules: evaluated from
// the model on the first update, carried forward by every later one.
// Caller holds in.mu.
func (in *instance) permits() zen.StateSet[pkt.Header] {
	if in.allow == nil {
		allow := zen.SolutionSet(in.w, in.model.(*zen.Fn[pkt.Header, bool]))
		in.allow = &allow
	}
	return *in.allow
}

// updateRM is the generic delta path for list-typed models: reuse a
// sat verdict when its cached witness still satisfies the new model
// (one interpreter pass), re-solve everything else. Caller holds in.mu.
func (s *Server) updateRM(ctx context.Context, in *instance, deltas []Delta) (*UpdateResponse, error) {
	newClauses, err := applyDeltas(in.rmRule, deltas, func(raw json.RawMessage, c *routemap.Clause) error { return decodeRule(raw, c) })
	if err != nil {
		return nil, err
	}
	newModel := buildRMModel(newClauses)
	newGen := in.gen + 1
	res := &UpdateResponse{
		Status:     "updated",
		Instance:   in.name,
		Family:     in.family,
		Generation: newGen,
		Rules:      len(newClauses),
	}
	for _, t := range in.tracked {
		reused := false
		if t.witness != nil {
			if cond, err := compileTracked(newModel, t); err == nil {
				if v, everr := zen.EvaluateRaw(ctx, cond, rebind(newModel, t.witness)); everr == nil && v.Type.Kind == core.KindBool && v.B {
					// The old witness still satisfies the new model, so
					// the sat/invalid verdict carries over witness and all.
					reused = true
				}
			}
		}
		if !reused {
			r := s.resolveTracked(ctx, newModel, t)
			applyResolved(t, r)
		}
		res.Queries = append(res.Queries, trackedResponse(in.name, t, reused))
		if reused {
			res.Reused++
		} else {
			res.Reverified++
		}
	}
	in.rmRule = newClauses
	in.model = newModel
	in.gen = newGen
	s.primeCache(in, newModel, newGen, res.Queries)
	return res, nil
}

// rebind maps a witness recorded against one generation's argument
// variables onto another's: zen.Func allocates fresh variables per
// build, but both families are single-argument models, so the re-keying
// is positional.
func rebind(m zen.Queryable, witness zen.RawModel) zen.RawModel {
	args := m.QueryArgs()
	out := make(zen.RawModel, len(args))
	for _, v := range witness {
		for _, a := range args {
			out[a.VarID] = v
		}
	}
	return out
}

// compileTracked compiles a tracked query's predicate against a model
// build, applying the verify negation.
func compileTracked(m zen.Queryable, t *tracked) (*core.Node, error) {
	r := &resolver{args: m.QueryArgs(), out: m.QueryOut()}
	cond, err := compilePredicate(t.raw, r)
	if err != nil {
		return nil, err
	}
	if t.kind == kindVerify {
		cond = zen.Builder().Not(cond)
	}
	return cond, nil
}

// resolveTracked re-solves a tracked query against a model build.
type resolved struct {
	verdict string
	model   map[string]any
	witness zen.RawModel
	solves  int64
}

func (s *Server) resolveTracked(ctx context.Context, m zen.Queryable, t *tracked) resolved {
	cond, err := compileTracked(m, t)
	if err != nil {
		return resolved{verdict: "error"}
	}
	st := &zen.Stats{}
	opts := []zen.Option{zen.WithBackend(t.backend), zen.WithStats(st), zen.WithListBound(t.bound)}
	args := m.QueryArgs()
	model, found, err := zen.FindRaw(ctx, cond, args, opts...)
	if err != nil {
		return resolved{verdict: "error"}
	}
	r := resolved{solves: st.Snapshot().Solves}
	if found {
		r.witness = model
		r.model = encodeModel(args, model)
		if t.kind == kindVerify {
			r.verdict = "invalid"
		} else {
			r.verdict = "sat"
		}
	} else if t.kind == kindVerify {
		r.verdict = "valid"
	} else {
		r.verdict = "unsat"
	}
	return r
}

func applyResolved(t *tracked, r resolved) {
	t.verdict, t.model, t.witness, t.solves = r.verdict, r.model, r.witness, r.solves
}

// setVerdict reads a verdict (and witness) off a satisfying-set.
func setVerdict(kind queryKind, sat zen.StateSet[pkt.Header]) (string, map[string]any) {
	if sat.IsEmpty() {
		if kind == kindVerify {
			return "valid", nil
		}
		return "unsat", nil
	}
	var model map[string]any
	if v, ok := sat.Internal().Element(); ok {
		model = map[string]any{"in": encodeValue(v)}
	}
	if kind == kindVerify {
		return "invalid", model
	}
	return "sat", model
}

// trackedResponse renders a tracked query's current answer as a
// standard envelope with delta provenance.
func trackedResponse(model string, t *tracked, reused bool) *Response {
	return &Response{
		APIVersion: APIVersion,
		Status:     t.verdict,
		Provenance: ProvDelta,
		Reused:     reused,
		Model:      t.model,
		Predicate:  t.raw,
		Counters:   &Counters{Solves: t.solves},
	}
}

// primeCache installs the post-update answers under the new generation,
// so follow-up /v1/query traffic for tracked predicates hits the LRU
// instead of re-solving. Caller holds in.mu with the new model set.
func (s *Server) primeCache(in *instance, m zen.Queryable, gen uint64, results []*Response) {
	for i, t := range in.tracked {
		if i >= len(results) || results[i].Status == "error" {
			continue
		}
		cond, err := compileTracked(m, t)
		if err != nil {
			continue
		}
		k := queryKey{
			model: in.name, kind: t.kind, backend: t.backend,
			cond: cond, max: 1, bound: t.bound, gen: gen,
		}
		s.cache.put(k, results[i])
	}
}
