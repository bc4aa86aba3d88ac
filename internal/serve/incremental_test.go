package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"zen-go/internal/figgen"
	"zen-go/nets/acl"
	"zen-go/nets/pkt"
	"zen-go/zen"
)

// aclInstance creates a small permit-web ACL instance: dst port 80 and
// 443 allowed, implicit deny otherwise.
func aclInstance(t *testing.T, s *Server, name string) {
	t.Helper()
	res := s.CreateInstance(context.Background(), &InstanceRequest{
		Name:   name,
		Family: "acl",
		Rules: []json.RawMessage{
			[]byte(`{"Permit": true, "DstLow": 80, "DstHigh": 80}`),
			[]byte(`{"Permit": true, "DstLow": 443, "DstHigh": 443}`),
		},
	})
	if res.Status != "created" || res.Err != nil {
		t.Fatalf("create: %+v", res)
	}
}

// allowedOnPort asks: is some packet with this dst port allowed?
func allowedOnPort(inst string, port int) *Request {
	return &Request{
		Model: inst, Kind: "find",
		Predicate: json.RawMessage(fmt.Sprintf(
			`{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":%d}}}]}`, port)),
	}
}

// deniedOnPort asserts: every packet with this dst port is denied.
func deniedOnPort(inst string, port int) *Request {
	return &Request{
		Model: inst, Kind: "verify",
		Predicate: json.RawMessage(fmt.Sprintf(
			`{"any":[{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"ne","rhs":{"lit":%d}}},{"not":{"ref":"out"}}]}`, port)),
	}
}

func TestInstanceCreateAndQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	aclInstance(t, s, "edge0")

	res := s.Do(context.Background(), allowedOnPort("edge0", 80))
	if res.Status != "sat" || res.Provenance != ProvCold {
		t.Fatalf("port-80 find: %q/%q (%s)", res.Status, res.Provenance, res.ErrText())
	}
	res = s.Do(context.Background(), deniedOnPort("edge0", 22))
	if res.Status != "valid" {
		t.Fatalf("port-22 deny verify: %q (%s)", res.Status, res.ErrText())
	}

	// Error paths: bad family, duplicate name, registry-name clash,
	// malformed and unknown-field rules.
	for _, tc := range []struct {
		req  *InstanceRequest
		code string
		http int
	}{
		{&InstanceRequest{Name: "x", Family: "bgp"}, ErrUnknownFamily, http.StatusBadRequest},
		{&InstanceRequest{Name: "edge0", Family: "acl"}, ErrInstanceExists, http.StatusConflict},
		{&InstanceRequest{Name: "demo/add8", Family: "acl"}, ErrInstanceExists, http.StatusConflict},
		{&InstanceRequest{Name: "", Family: "acl"}, ErrBadRequest, http.StatusBadRequest},
		{&InstanceRequest{Name: "y", Family: "acl",
			Rules: []json.RawMessage{[]byte(`{"Permitt": true}`)}}, ErrBadRule, http.StatusBadRequest},
	} {
		res := s.CreateInstance(context.Background(), tc.req)
		if res.Status != "error" || res.Err == nil || res.Err.Code != tc.code || res.HTTPStatus() != tc.http {
			t.Fatalf("create %+v: got %+v, want code %s http %d", tc.req, res, tc.code, tc.http)
		}
	}

	// The instance shows up in the listing with its family and counters.
	list := s.Instances()
	if len(list) != 1 || list[0]["name"] != "edge0" || list[0]["family"] != "acl" {
		t.Fatalf("instances = %+v", list)
	}
}

// TestUpdateDeltaReuse is the tentpole acceptance path: after an update,
// queries whose footprint is disjoint from the change set are reused
// verbatim, intersecting ones are re-verified, and both carry delta
// provenance. On the acl family neither path invokes a solver.
func TestUpdateDeltaReuse(t *testing.T) {
	s := newTestServer(t, Config{})
	aclInstance(t, s, "edge1")
	ctx := context.Background()

	// Track two queries cold: the port-80 find and the port-22 deny
	// verify. Both cost at least one solve.
	var coldSolves int64
	for _, req := range []*Request{allowedOnPort("edge1", 80), deniedOnPort("edge1", 22)} {
		res := s.Do(ctx, req)
		if res.Status != "sat" && res.Status != "valid" {
			t.Fatalf("cold %s: %q (%s)", req.Kind, res.Status, res.ErrText())
		}
		coldSolves += res.SolveCount()
	}
	if coldSolves < 2 {
		t.Fatalf("cold solves = %d, want >= 2", coldSolves)
	}

	// Open ssh: permit dst port 22. This changes only port-22 headers,
	// so the port-80 find must be reused and the port-22 verify must
	// flip to invalid — both by state-set algebra, zero solves.
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }
	up := s.DoUpdate(ctx, &UpdateRequest{
		Instance: "edge1",
		Deltas:   []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}},
	})
	if up.Status != "updated" || up.Generation != 1 || up.Rules != 3 {
		t.Fatalf("update: %+v (%v)", up, up.Err)
	}
	if up.Reused != 1 || up.Reverified != 1 {
		t.Fatalf("reused/reverified = %d/%d, want 1/1", up.Reused, up.Reverified)
	}
	if up.DirtyClasses < 1 || up.DirtyClasses > up.TotalClasses {
		t.Fatalf("dirty classes = %d of %d", up.DirtyClasses, up.TotalClasses)
	}
	// Reused answers repeat their original counters (that is the cost a
	// client would attribute to the answer); the update's own spend is
	// the re-verified queries' solves.
	var updateSolves int64
	for i, q := range up.Queries {
		if q.Provenance != ProvDelta {
			t.Fatalf("query %d provenance = %q", i, q.Provenance)
		}
		if len(q.Predicate) == 0 {
			t.Fatalf("query %d echoes no predicate", i)
		}
		if !q.Reused {
			updateSolves += q.SolveCount()
		}
	}
	if up.Queries[0].Status != "sat" || !up.Queries[0].Reused {
		t.Fatalf("port-80 query after update: %+v", up.Queries[0])
	}
	if up.Queries[1].Status != "invalid" || up.Queries[1].Reused {
		t.Fatalf("port-22 verify after update: %+v", up.Queries[1])
	}
	if up.Queries[1].Model == nil {
		t.Fatalf("re-verified invalid carries no counterexample")
	}

	// The acceptance criterion: delta re-verification must be at least
	// 10x cheaper than cold re-solving. On the exact-set path it is
	// infinitely cheaper — zero solver invocations against >= 2 cold.
	if updateSolves*10 > coldSolves {
		t.Fatalf("update solves = %d vs cold %d: not 10x cheaper", updateSolves, coldSolves)
	}
	if execs.Load() != 0 {
		t.Fatalf("update ran %d solver executions, want 0", execs.Load())
	}

	// The update primed the new generation's cache: re-asking the
	// tracked queries answers from the LRU with the delta stamp, still
	// without executing.
	res := s.Do(ctx, allowedOnPort("edge1", 80))
	if res.Provenance != ProvDelta || !res.Reused || res.Status != "sat" {
		t.Fatalf("post-update port-80: %+v", res)
	}
	res = s.Do(ctx, deniedOnPort("edge1", 22))
	if res.Provenance != ProvDelta || res.Reused || res.Status != "invalid" {
		t.Fatalf("post-update port-22 verify: %+v", res)
	}
	if execs.Load() != 0 {
		t.Fatalf("post-update queries executed %d times, want cache hits", execs.Load())
	}
	if st := s.Stats(); st.Updates != 1 || st.DeltaReused != 1 || st.DeltaReverified != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeltaPrimedHitTracesFingerprint: a cache hit on an entry that an
// update primed traces the same "dag" attribute as a cold query for the
// same predicate on a server that never saw the update.
func TestDeltaPrimedHitTracesFingerprint(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	aclInstance(t, s, "edge3")
	if res := s.Do(ctx, allowedOnPort("edge3", 80)); res.Status != "sat" {
		t.Fatalf("cold: %q (%s)", res.Status, res.ErrText())
	}
	up := s.DoUpdate(ctx, &UpdateRequest{
		Instance: "edge3",
		Deltas:   []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}},
	})
	if up.Status != "updated" {
		t.Fatalf("update: %+v (%v)", up, up.Err)
	}
	req := allowedOnPort("edge3", 80)
	req.Trace = true
	hit := s.Do(ctx, req)
	if hit.Provenance != ProvDelta || hit.Trace == nil {
		t.Fatalf("post-update query: provenance %q, trace %v", hit.Provenance, hit.Trace)
	}

	// The same rules, created directly, on a fresh server.
	cold := newTestServer(t, Config{})
	res := cold.CreateInstance(ctx, &InstanceRequest{
		Name:   "edge3",
		Family: "acl",
		Rules: []json.RawMessage{
			[]byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`),
			[]byte(`{"Permit": true, "DstLow": 80, "DstHigh": 80}`),
			[]byte(`{"Permit": true, "DstLow": 443, "DstHigh": 443}`),
		},
	})
	if res.Status != "created" {
		t.Fatalf("create: %+v", res)
	}
	want := cold.Do(ctx, req)
	if want.Provenance != ProvCold || want.Trace == nil {
		t.Fatalf("fresh server: provenance %q, trace %v", want.Provenance, want.Trace)
	}
	got, wantDAG := hit.Trace.Attrs["dag"], want.Trace.Attrs["dag"]
	if wantDAG == nil || got != wantDAG {
		t.Fatalf("delta-primed hit traces dag %v, cold query %v", got, wantDAG)
	}
}

// TestUpdateRouteMapWitnessReuse covers the generic (list-typed) path:
// reuse rides on the cached witness still satisfying the new model.
func TestUpdateRouteMapWitnessReuse(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	res := s.CreateInstance(ctx, &InstanceRequest{
		Name: "rm0", Family: "routemap",
		Rules: []json.RawMessage{[]byte(`{"Permit": true, "MatchCommunity": 100}`)},
	})
	if res.Status != "created" {
		t.Fatalf("create: %+v", res)
	}

	// Is any route accepted? The witness carries community 100.
	accepted := &Request{Model: "rm0", Kind: "find", Predicate: []byte(`{"ref":"out.Ok"}`)}
	q := s.Do(ctx, accepted)
	if q.Status != "sat" {
		t.Fatalf("accepted find: %q (%s)", q.Status, q.ErrText())
	}

	// Appending an unrelated clause keeps the witness valid: reused.
	up := s.DoUpdate(ctx, &UpdateRequest{Instance: "rm0", Deltas: []Delta{
		{Op: "insert", Index: 1, Rule: []byte(`{"Permit": true, "MatchAsContains": 7}`)},
	}})
	if up.Status != "updated" || up.Reused != 1 || up.Reverified != 0 {
		t.Fatalf("append update: %+v (%v)", up, up.Err)
	}
	if !up.Queries[0].Reused || up.Queries[0].Status != "sat" {
		t.Fatalf("append query: %+v", up.Queries[0])
	}

	// Retargeting clause 0 to community 200 invalidates the witness:
	// the query re-solves (still sat through the new clause).
	up = s.DoUpdate(ctx, &UpdateRequest{Instance: "rm0", Deltas: []Delta{
		{Op: "modify", Index: 0, Rule: []byte(`{"Permit": true, "MatchCommunity": 200}`)},
		{Op: "delete", Index: 1},
	}})
	if up.Status != "updated" || up.Reused != 0 || up.Reverified != 1 {
		t.Fatalf("retarget update: %+v (%v)", up, up.Err)
	}
	if up.Queries[0].Reused || up.Queries[0].Status != "sat" || up.Queries[0].SolveCount() == 0 {
		t.Fatalf("retarget query: %+v", up.Queries[0])
	}
}

func TestUpdateErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	aclInstance(t, s, "edge2")
	ctx := context.Background()
	for _, tc := range []struct {
		req  *UpdateRequest
		code string
		http int
	}{
		{&UpdateRequest{Instance: "nope", Deltas: []Delta{{Op: "delete", Index: 0}}},
			ErrUnknownInstance, http.StatusNotFound},
		{&UpdateRequest{Instance: "edge2"}, ErrBadDelta, http.StatusBadRequest},
		{&UpdateRequest{Instance: "edge2", Deltas: []Delta{{Op: "delete", Index: 9}}},
			ErrBadDelta, http.StatusBadRequest},
		{&UpdateRequest{Instance: "edge2", Deltas: []Delta{{Op: "swap", Index: 0}}},
			ErrBadDelta, http.StatusBadRequest},
		{&UpdateRequest{Instance: "edge2", Deltas: []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Nope": 1}`)}}},
			ErrBadDelta, http.StatusBadRequest},
	} {
		res := s.DoUpdate(ctx, tc.req)
		if res.Status != "error" || res.Err == nil || res.Err.Code != tc.code || res.HTTPStatus() != tc.http {
			t.Fatalf("update %+v: got %+v, want %s/%d", tc.req, res, tc.code, tc.http)
		}
	}
	// A failed update must not advance the generation.
	if up := s.DoUpdate(ctx, &UpdateRequest{Instance: "edge2",
		Deltas: []Delta{{Op: "delete", Index: 1}}}); up.Generation != 1 {
		t.Fatalf("generation after one good update = %d, want 1", up.Generation)
	}
}

// TestConcurrentUpdateAndQuery races /v1/update against /v1/query on one
// instance. Run under -race this checks the generation/view locking; the
// assertions check that every answer is a complete verdict from some
// consistent generation.
func TestConcurrentUpdateAndQuery(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	aclInstance(t, s, "edge3")
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			op := []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}}
			if i%2 == 1 {
				op = []Delta{{Op: "delete", Index: 0}}
			}
			if up := s.DoUpdate(ctx, &UpdateRequest{Instance: "edge3", Deltas: op}); up.Status != "updated" {
				errs <- fmt.Errorf("update %d: %+v (%v)", i, up.Status, up.Err)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				res := s.Do(ctx, allowedOnPort("edge3", 80+g))
				switch res.Status {
				case "sat", "unsat":
				default:
					errs <- fmt.Errorf("query %d/%d: %q (%s)", g, i, res.Status, res.ErrText())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchPerItemErrors: one malformed sub-query fails its own slot
// with a bad_request entry; the rest of the batch still runs.
func TestBatchPerItemErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"queries":[
		{"model":"demo/add8","kind":"find","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}},
		{"model": 42},
		{"model":"demo/add8","kind":"evaluate","args":[1]}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/batch: %d %s", resp.StatusCode, b)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.APIVersion != APIVersion || len(batch.Results) != 3 {
		t.Fatalf("batch envelope: %+v", batch)
	}
	if r := batch.Results[0]; r.Status != "sat" {
		t.Fatalf("result 0: %+v", r)
	}
	if r := batch.Results[1]; r.Status != "error" || r.Err == nil || r.Err.Code != ErrBadRequest {
		t.Fatalf("result 1: %+v", r)
	}
	if r := batch.Results[2]; r.Status != "ok" {
		t.Fatalf("result 2: %+v", r)
	}

	// Oversized batches still fail as a whole, with the stable code.
	var sb bytes.Buffer
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"model":"demo/add8","kind":"evaluate","args":[1]}`)
	}
	sb.WriteString(`]}`)
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", &sb)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var res Response
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest || res.Err == nil || res.Err.Code != ErrBatchTooLarge {
		t.Fatalf("oversized batch: %d %+v", resp2.StatusCode, res)
	}
}

// TestHTTPInstanceSurface drives the instance lifecycle over HTTP:
// create, list, query, update, and the error envelope on a bad delta.
func TestHTTPInstanceSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := post("/v1/instances",
		`{"name":"web","family":"acl","rules":[{"Permit":true,"DstLow":80,"DstHigh":80}]}`)
	if code != http.StatusOK || !strings.Contains(body, `"verdict": "created"`) {
		t.Fatalf("create: %d %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"web"`) {
		t.Fatalf("list: %s", b)
	}

	code, body = post("/v1/query",
		`{"model":"web","kind":"find","predicate":{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":80}}}]}}`)
	if code != http.StatusOK || !strings.Contains(body, `"verdict": "sat"`) {
		t.Fatalf("query: %d %s", code, body)
	}

	code, body = post("/v1/update",
		`{"instance":"web","deltas":[{"op":"modify","index":0,"rule":{"Permit":false,"DstLow":80,"DstHigh":80}}]}`)
	if code != http.StatusOK || !strings.Contains(body, `"verdict": "updated"`) ||
		!strings.Contains(body, `"provenance": "delta"`) {
		t.Fatalf("update: %d %s", code, body)
	}
	// Port 80 is now denied: the re-verified tracked query flipped.
	if !strings.Contains(body, `"verdict": "unsat"`) {
		t.Fatalf("update did not flip the tracked query: %s", body)
	}

	code, body = post("/v1/update", `{"instance":"web","deltas":[{"op":"delete","index":5}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"code": "bad_delta"`) {
		t.Fatalf("bad delta: %d %s", code, body)
	}
}

// TestHTTPRejectsBadRulePrefixes: a prefix longer than 32 or with host
// bits set would silently widen a rule to every address or make it match
// none, so create and update both reject it as bad_rule, naming the rule
// and the field, and a rejected update leaves the generation alone.
func TestHTTPRejectsBadRulePrefixes(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	wantBadRule := func(what string, code int, body string, names ...string) {
		t.Helper()
		if code != http.StatusBadRequest || !strings.Contains(body, `"code": "bad_rule"`) {
			t.Fatalf("%s: %d %s, want 400 bad_rule", what, code, body)
		}
		for _, n := range names {
			if !strings.Contains(body, n) {
				t.Fatalf("%s: message does not name %q: %s", what, n, body)
			}
		}
	}

	// 10.0.0.0 is 167772160; 10.0.0.1 is 167772161.
	for _, tc := range []struct {
		name, family, rules string
		names               []string
	}{
		{"long", "acl", `[{"Permit":true},{"Permit":true,"SrcPfx":{"Address":0,"Length":33}}]`,
			[]string{"rule 1", "SrcPfx", "length 33"}},
		{"hostbits", "acl", `[{"Permit":true,"DstPfx":{"Address":167772161,"Length":8}}]`,
			[]string{"rule 0", "DstPfx", "host bits"}},
		{"rmlong", "routemap", `[{"Permit":true,"MatchPrefixes":[{"Pfx":{"Address":167772160,"Length":8},"GE":8,"LE":32},{"Pfx":{"Address":167772160,"Length":40},"GE":8,"LE":32}]}]`,
			[]string{"clause 0", "MatchPrefixes[1].Pfx", "length 40"}},
		{"rmhostbits", "routemap", `[{"Permit":true,"MatchPrefixes":[{"Pfx":{"Address":167772161,"Length":0},"GE":0,"LE":32}]}]`,
			[]string{"clause 0", "MatchPrefixes[0].Pfx", "host bits"}},
	} {
		code, body := post("/v1/instances", `{"name":"`+tc.name+`","family":"`+tc.family+`","rules":`+tc.rules+`}`)
		wantBadRule("create "+tc.name, code, body, tc.names...)
	}

	code, body := post("/v1/instances",
		`{"name":"web","family":"acl","rules":[{"Permit":true,"DstPfx":{"Address":167772160,"Length":8}}]}`)
	if code != http.StatusOK || !strings.Contains(body, `"verdict": "created"`) {
		t.Fatalf("create: %d %s", code, body)
	}
	// The good insert ahead of the bad rule must not land either: a
	// rejected update leaves the instance as it was.
	code, body = post("/v1/update", `{"instance":"web","deltas":[`+
		`{"op":"insert","index":1,"rule":{"Permit":false}},`+
		`{"op":"modify","index":0,"rule":{"Permit":true,"DstPfx":{"Address":167772160,"Length":33}}}]}`)
	wantBadRule("update modify", code, body, "delta 1", "DstPfx", "length 33")
	code, body = post("/v1/update",
		`{"instance":"web","deltas":[{"op":"insert","index":0,"rule":{"Permit":false,"SrcPfx":{"Address":167772161,"Length":24}}}]}`)
	wantBadRule("update insert", code, body, "delta 0", "SrcPfx", "host bits")

	resp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"generation": 0`) || !strings.Contains(string(b), `"rules": 1`) ||
		strings.Contains(string(b), `"long"`) {
		t.Fatalf("rejected creates or updates changed the instances: %s", b)
	}
}

// TestLintEndpoint: GET /v1/lint serves the zenlint finding schema.
func TestLintEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lint?model=demo/add8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/lint: %d", resp.StatusCode)
	}
	var lr LintResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.APIVersion != APIVersion || lr.Findings == nil {
		t.Fatalf("lint envelope: %+v", lr)
	}
	for _, f := range lr.Findings {
		if f.Model != "demo/add8" || f.Rule == "" || f.Severity == "" {
			t.Fatalf("finding misses identity: %+v", f)
		}
	}

	resp2, err := http.Get(ts.URL + "/v1/lint?model=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var lr2 LintResponse
	if err := json.NewDecoder(resp2.Body).Decode(&lr2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound || lr2.Err == nil || lr2.Err.Code != ErrUnknownModel {
		t.Fatalf("/v1/lint unknown model: %d %+v", resp2.StatusCode, lr2)
	}

	// Every registered model lints without a filter; suppressed findings
	// appear only on request.
	resp3, err := http.Get(ts.URL + "/v1/lint?suppressed=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var lr3 LintResponse
	if err := json.NewDecoder(resp3.Body).Decode(&lr3); err != nil {
		t.Fatal(err)
	}
	suppressed := 0
	for _, f := range lr3.Findings {
		if f.Suppressed {
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Fatalf("expected suppressed findings across the registry, got %d findings, 0 suppressed", len(lr3.Findings))
	}
}

// TestUntracedPathsSkipFingerprint: with no trace, slow log or snapshot
// directory, no query path (cold, cached, subsumed, delta-primed) and no
// update computes the structural fingerprint, whose walk covers the
// whole model DAG.
func TestUntracedPathsSkipFingerprint(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	aclInstance(t, s, "edge4")
	before := fingerprintCalls.Load()
	for _, req := range []*Request{
		allowedOnPort("edge4", 80), allowedOnPort("edge4", 80), deniedOnPort("edge4", 22),
		findEq("demo/add8", 9), findEq("demo/add8", 9),
		reqOf("find", `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":8}}}]}`),
	} {
		if res := s.Do(ctx, req); res.Err != nil {
			t.Fatalf("%s %s: %s", req.Model, req.Predicate, res.ErrText())
		}
	}
	up := s.DoUpdate(ctx, &UpdateRequest{
		Instance: "edge4",
		Deltas:   []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}},
	})
	if up.Status != "updated" {
		t.Fatalf("update: %+v (%v)", up, up.Err)
	}
	if res := s.Do(ctx, allowedOnPort("edge4", 80)); res.Provenance != ProvDelta {
		t.Fatalf("post-update query: provenance %q", res.Provenance)
	}
	if st := s.Stats(); st.CacheHits < 2 || st.Subsumed < 1 {
		t.Fatalf("test premise broken: stats %+v", st)
	}
	if n := fingerprintCalls.Load() - before; n != 0 {
		t.Fatalf("untraced queries and update computed %d fingerprints, want 0", n)
	}
	// A traced query is a reader, and pays for one.
	req := allowedOnPort("edge4", 80)
	req.Trace = true
	if res := s.Do(ctx, req); res.Trace == nil || res.Trace.Attrs["dag"] == nil {
		t.Fatalf("traced query: no dag attribute")
	}
	if n := fingerprintCalls.Load() - before; n != 1 {
		t.Fatalf("traced query computed %d fingerprints, want 1", n)
	}
}

// TestACLDeltaDifferential: seeded insert/modify/delete deltas on a
// figgen ACL instance with tracked find and verify queries. After every
// update the carried permit set equals the permit set of a freshly
// built ACL, a query is reused exactly when its footprint misses the
// headers whose decision changed, and every tracked verdict agrees with
// a cold solve on the new model, its witness satisfying the new model's
// predicate.
func TestACLDeltaDifferential(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(19))
	rules := figgen.ACL(rand.New(rand.NewSource(40)), 40).Rules
	spare := figgen.ACL(rand.New(rand.NewSource(41)), 40).Rules // rules to insert
	ruleJSON := func(r acl.Rule) json.RawMessage {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	raws := make([]json.RawMessage, len(rules))
	for i, r := range rules {
		raws[i] = ruleJSON(r)
	}
	if res := s.CreateInstance(ctx, &InstanceRequest{Name: "diff", Family: "acl", Rules: raws}); res.Status != "created" {
		t.Fatalf("create: %+v", res)
	}

	// Queries slice the header space near a rule's destination prefix
	// and pin the verdict, as zend-mix's ACL queries do; every fourth
	// slices by protocol alone, so most deltas touch it.
	kinds := map[string]string{} // compact predicate -> kind
	for i := 0; i < 16; i++ {
		r := rules[rng.Intn(len(rules))]
		span := uint32(1) << (12 + rng.Intn(18))
		lo := (r.DstPfx.Address | rng.Uint32()&^r.DstPfx.Mask()) &^ (span - 1)
		slice := fmt.Sprintf(`{"all":[{"cmp":{"lhs":{"ref":"in.DstIP"},"op":"ge","rhs":{"lit":%d}}},{"cmp":{"lhs":{"ref":"in.DstIP"},"op":"le","rhs":{"lit":%d}}}]}`, lo, lo+span-1)
		if i%4 == 3 {
			slice = fmt.Sprintf(`{"cmp":{"lhs":{"ref":"in.Protocol"},"op":"eq","rhs":{"lit":%d}}}`, []int{1, 6, 17}[rng.Intn(3)])
		}
		out := fmt.Sprintf(`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":%v}}}`, rng.Intn(2) == 0)
		req := &Request{Model: "diff", Kind: "find", Predicate: json.RawMessage(`{"all":[` + out + `,` + slice + `]}`)}
		if i%2 == 1 {
			req.Kind = "verify"
			req.Predicate = json.RawMessage(`{"any":[{"not":` + slice + `},` + out + `]}`)
		}
		if res := s.Do(ctx, req); res.Err != nil {
			t.Fatalf("query %d: %s", i, res.ErrText())
		}
		kinds[string(req.Predicate)] = req.Kind
	}

	// A query the subsumption index answers is not tracked; most are.
	in := s.instance("diff")
	in.mu.RLock()
	nTracked, tracked := len(in.tracked), map[string]bool{}
	for _, tq := range in.tracked {
		tracked[tq.kind.String()] = true
	}
	in.mu.RUnlock()
	if nTracked < 8 || !tracked["find"] || !tracked["verify"] {
		t.Fatalf("test premise broken: %d tracked queries, kinds %v", nTracked, tracked)
	}
	freshAllow := func() zen.StateSet[pkt.Header] {
		return zen.SetOf(in.w, (&acl.ACL{Rules: rules}).Allow)
	}
	prev := freshAllow()
	verdicts := map[string][2]string{"find": {"unsat", "sat"}, "verify": {"valid", "invalid"}}
	var reused, reverified int
	for step := 0; step < 32; step++ {
		var d Delta
		switch op := rng.Intn(3); {
		case op == 0 || len(rules) < 4:
			r := spare[rng.Intn(len(spare))]
			d = Delta{Op: "insert", Index: rng.Intn(len(rules) + 1), Rule: ruleJSON(r)}
			rules = slices.Insert(rules, d.Index, r)
		case op == 1:
			d = Delta{Op: "delete", Index: rng.Intn(len(rules))}
			rules = slices.Delete(rules, d.Index, d.Index+1)
		default:
			d = Delta{Op: "modify", Index: rng.Intn(len(rules))}
			r := rules[d.Index]
			r.Permit = !r.Permit
			if rng.Intn(2) == 0 {
				r = spare[rng.Intn(len(spare))]
			}
			d.Rule = ruleJSON(r)
			rules[d.Index] = r
		}
		up := s.DoUpdate(ctx, &UpdateRequest{Instance: "diff", Deltas: []Delta{d}})
		if up.Status != "updated" || up.Rules != len(rules) {
			t.Fatalf("step %d %s@%d: %+v (%v)", step, d.Op, d.Index, up, up.Err)
		}
		reused += up.Reused
		reverified += up.Reverified

		model := buildACLModel(rules)
		in.mu.RLock()
		carried, fresh := in.allow, freshAllow()
		changed := symDiff(prev, fresh)
		if carried == nil || !carried.Equal(fresh) {
			t.Fatalf("step %d %s@%d: carried permit set differs from a fresh build", step, d.Op, d.Index)
		}
		if len(up.Queries) != nTracked {
			t.Fatalf("step %d: %d tracked answers, want %d", step, len(up.Queries), nTracked)
		}
		for i, tq := range in.tracked {
			if want := tq.rel.Intersect(changed).IsEmpty(); up.Queries[i].Reused != want {
				t.Fatalf("step %d %s@%d: %s reused = %v, its footprint misses the change: %v",
					step, d.Op, d.Index, tq.raw, up.Queries[i].Reused, want)
			}
		}
		in.mu.RUnlock()
		prev = fresh
		args := model.QueryArgs()
		for _, q := range up.Queries {
			kind, ok := kinds[string(q.Predicate)]
			if !ok {
				t.Fatalf("step %d: answer for unknown predicate %s", step, q.Predicate)
			}
			cond, err := compilePredicate(q.Predicate, &resolver{args: args, out: model.QueryOut()})
			if err != nil {
				t.Fatal(err)
			}
			if kind == "verify" {
				cond = zen.Builder().Not(cond)
			}
			_, found, err := zen.FindRaw(ctx, cond, args)
			if err != nil {
				t.Fatal(err)
			}
			want := verdicts[kind][0]
			if found {
				want = verdicts[kind][1]
			}
			if q.Status != want {
				t.Fatalf("step %d %s@%d: %s %s answered %q (reused %v), cold solve says %q",
					step, d.Op, d.Index, kind, q.Predicate, q.Status, q.Reused, want)
			}
			if !found {
				continue
			}
			env := witnessEnv(args, q.Model)
			if env == nil {
				t.Fatalf("step %d: %s %s: %q with no usable witness %v", step, kind, q.Predicate, q.Status, q.Model)
			}
			if v, err := zen.EvaluateRaw(ctx, cond, env); err != nil || !v.B {
				t.Fatalf("step %d: %s %s: witness %v does not satisfy the new model (reused %v)",
					step, kind, q.Predicate, q.Model, q.Reused)
			}
		}
	}
	if reused == 0 || reverified == 0 {
		t.Fatalf("reused %d, re-verified %d: both paths must be exercised", reused, reverified)
	}
	t.Logf("%d reused, %d re-verified over 32 updates", reused, reverified)
}
