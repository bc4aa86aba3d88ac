package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"zen-go/zen"
)

func reqOf(kind, pred string) *Request {
	return &Request{Model: "demo/add8", Kind: kind, Predicate: json.RawMessage(pred)}
}

// TestSubsumptionUnsatTransfer: a cached UNSAT for P answers any Q with
// Q ⇒ P without executing a solver.
func TestSubsumptionUnsatTransfer(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }
	ctx := context.Background()

	// P: out == 5 && out == 9 — unsat.
	p := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}}]}`
	if res := s.Do(ctx, reqOf("find", p)); res.Status != "unsat" || res.Provenance != ProvCold {
		t.Fatalf("P: %q/%q", res.Status, res.Provenance)
	}
	// Q strengthens P with in == 1, so Q ⇒ P: transferred unsat.
	q := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":1}}}]}`
	res := s.Do(ctx, reqOf("find", q))
	if res.Status != "unsat" || res.Provenance != ProvSubsumed {
		t.Fatalf("Q: %q/%q, want subsumed unsat", res.Status, res.Provenance)
	}
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want 1 (Q answered by implication)", execs.Load())
	}
	// A verify whose counterexample search is also implied comes back
	// valid through the same entry.
	v := `{"any":[{"not":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}},{"not":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}}}]}`
	res = s.Do(ctx, reqOf("verify", v))
	if res.Status != "valid" || res.Provenance != ProvSubsumed {
		t.Fatalf("verify: %q/%q, want subsumed valid", res.Status, res.Provenance)
	}
	if execs.Load() != 1 {
		t.Fatalf("executions = %d after verify, want 1", execs.Load())
	}
	// The transferred answer is in the LRU now: a repeat is a plain hit.
	if res := s.Do(ctx, reqOf("find", q)); !res.Cached() {
		t.Fatalf("repeat of subsumed Q: %q, want cached", res.Provenance)
	}
	if st := s.Stats(); st.Subsumed != 2 {
		t.Fatalf("subsumed counter = %d, want 2", st.Subsumed)
	}
}

// TestSubsumptionWitnessTransfer: a cached witness for P satisfies any
// Q with P ⇒ Q, so the sat verdict transfers witness and all.
func TestSubsumptionWitnessTransfer(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }
	ctx := context.Background()

	// P: out == 5 && in == 4 — sat with the unique witness in = 4.
	p := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":4}}}]}`
	if res := s.Do(ctx, reqOf("find", p)); res.Status != "sat" {
		t.Fatalf("P: %q (%s)", res.Status, res.ErrText())
	}
	// Q: out == 5 — weaker than P, so P's witness satisfies it.
	res := s.Do(ctx, reqOf("find", `{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}`))
	if res.Status != "sat" || res.Provenance != ProvSubsumed {
		t.Fatalf("Q: %q/%q, want subsumed sat", res.Status, res.Provenance)
	}
	if fmt.Sprint(res.Model["in"]) != "4" {
		t.Fatalf("Q witness = %v, want the transferred in=4", res.Model)
	}
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want 1", execs.Load())
	}
}

// TestSubsumptionUnsatBeforeSat: with both entry lists populated, the
// definite-emptiness proof is consulted first — a query implied by an
// UNSAT entry comes back unsat even though SAT entries exist.
func TestSubsumptionUnsatBeforeSat(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	// One sat entry (out == 5, witness in = 4) ...
	if res := s.Do(ctx, reqOf("find", `{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}`)); res.Status != "sat" {
		t.Fatalf("sat seed: %q", res.Status)
	}
	// ... and one unsat entry (out == 7 && out == 8).
	p := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":8}}}]}`
	if res := s.Do(ctx, reqOf("find", p)); res.Status != "unsat" {
		t.Fatalf("unsat seed: %q", res.Status)
	}
	// Q ⇒ the unsat entry and is not implied by the sat one: unsat.
	q := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":8}}},{"cmp":{"lhs":{"ref":"in"},"op":"ne","rhs":{"lit":3}}}]}`
	res := s.Do(ctx, reqOf("find", q))
	if res.Status != "unsat" || res.Provenance != ProvSubsumed {
		t.Fatalf("Q: %q/%q, want subsumed unsat", res.Status, res.Provenance)
	}
}

// TestSubsumptionDisabledWithCache: CacheSize <= 0 turns the whole cache
// stack off, including the subsumption index — the cold benchmark
// sentinel depends on this.
func TestSubsumptionDisabledWithCache(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: -1})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }
	ctx := context.Background()
	p := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}}]}`
	for i := 0; i < 2; i++ {
		if res := s.Do(ctx, reqOf("find", p)); res.Status != "unsat" || res.Provenance != ProvCold {
			t.Fatalf("run %d: %q/%q, want cold unsat", i, res.Status, res.Provenance)
		}
	}
	if execs.Load() != 2 {
		t.Fatalf("executions = %d, want 2 (no caching of any kind)", execs.Load())
	}
}

// TestFingerprintAlphaEquivalence: the structural fingerprint must be
// stable across model rebuilds (fresh variable ids) and distinct for
// distinct predicates — snapshot correctness rides on both.
func TestFingerprintAlphaEquivalence(t *testing.T) {
	rules := []json.RawMessage{[]byte(`{"Permit": true, "DstLow": 80, "DstHigh": 80}`)}
	parsed, err := parseACLRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	// Two builds of the same model allocate fresh argument variables.
	m1, m2 := buildACLModel(parsed), buildACLModel(parsed)
	if m1.QueryArgs()[0] == m2.QueryArgs()[0] {
		t.Fatalf("test premise broken: rebuilds share argument nodes")
	}
	pred := json.RawMessage(`{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":80}}}]}`)
	c1, err := compilePredicate(pred, &resolver{args: m1.QueryArgs(), out: m1.QueryOut()})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compilePredicate(pred, &resolver{args: m2.QueryArgs(), out: m2.QueryOut()})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatalf("test premise broken: different builds share the DAG node")
	}
	if fingerprint(c1) != fingerprint(c2) {
		t.Fatalf("alpha-equivalent DAGs fingerprint differently: %s vs %s", fingerprint(c1), fingerprint(c2))
	}
	// A genuinely different predicate must not collide.
	other := json.RawMessage(`{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":81}}}]}`)
	c3, err := compilePredicate(other, &resolver{args: m1.QueryArgs(), out: m1.QueryOut()})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(c3) == fingerprint(c1) {
		t.Fatalf("distinct predicates collide on %s", fingerprint(c1))
	}
}

// TestSnapshotRestart is the persistence acceptance criterion: a
// restarted server answers previously-cached queries from the persisted
// snapshot, and previously-proven implications through the restored
// subsumption index — in both cases without a cold solve.
func TestSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := New(Config{SnapshotDir: dir})
	satP := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":4}}}]}`
	unsatP := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}}]}`
	validP := `{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"ref":"in"}}}`
	if res := s1.Do(ctx, reqOf("find", satP)); res.Status != "sat" {
		t.Fatalf("seed sat: %q (%s)", res.Status, res.ErrText())
	}
	if res := s1.Do(ctx, reqOf("find", unsatP)); res.Status != "unsat" {
		t.Fatalf("seed unsat: %q", res.Status)
	}
	if res := s1.Do(ctx, reqOf("verify", validP)); res.Status != "valid" {
		t.Fatalf("seed verify: %q", res.Status)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A fresh process over the same snapshot dir: same registry, new
	// caches. Every re-asked query must come back without executing.
	s2 := newTestServer(t, Config{SnapshotDir: dir})
	var execs atomic.Int64
	s2.onExec = func(queryKey) { execs.Add(1) }
	for _, tc := range []struct {
		kind, pred, want string
	}{
		{"find", satP, "sat"},
		{"find", unsatP, "unsat"},
		{"verify", validP, "valid"},
	} {
		res := s2.Do(ctx, reqOf(tc.kind, tc.pred))
		if res.Status != tc.want || res.Provenance != ProvCached || !res.FromSnapshot {
			t.Fatalf("%s after restart: %q/%q from_snapshot=%v, want snapshot hit",
				tc.kind, res.Status, res.Provenance, res.FromSnapshot)
		}
	}
	if execs.Load() != 0 {
		t.Fatalf("restart executed %d solves, want 0", execs.Load())
	}
	if st := s2.Stats(); st.SnapshotHits != 3 {
		t.Fatalf("snapshot hits = %d, want 3", st.SnapshotHits)
	}
	// The witness survived the round trip.
	if res := s2.Do(ctx, reqOf("find", satP)); fmt.Sprint(res.Model["in"]) != "4" {
		t.Fatalf("restored witness = %v", res.Model)
	}

	// The subsumption index survived too: a NEW query implied by the
	// persisted unsat entry is answered by implication, not a solve.
	q := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":9}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":2}}}]}`
	res := s2.Do(ctx, reqOf("find", q))
	if res.Status != "unsat" || res.Provenance != ProvSubsumed {
		t.Fatalf("implied query after restart: %q/%q, want subsumed unsat", res.Status, res.Provenance)
	}
	if execs.Load() != 0 {
		t.Fatalf("implied query executed a solver")
	}
	// Genuinely new work still solves cold — the snapshot must not
	// invent answers.
	if res := s2.Do(ctx, findEq("demo/add8", 123)); res.Status != "sat" || res.Provenance != ProvCold {
		t.Fatalf("new query: %q/%q, want a cold sat", res.Status, res.Provenance)
	}
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want exactly the new query's", execs.Load())
	}
}

// TestSnapshotStaleModelDiscarded: a snapshot written for a different
// model semantics (here: a forged model fingerprint) is ignored.
func TestSnapshotStaleModelDiscarded(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1 := New(Config{SnapshotDir: dir})
	if res := s1.Do(ctx, findEq("demo/add8", 5)); res.Status != "sat" {
		t.Fatalf("seed: %q", res.Status)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt the model fingerprint, as if the binary's model changed.
	path := snapshotPath(dir, "demo/add8")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f snapshotFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	f.ModelFP = "0000000000000000"
	forged, _ := json.Marshal(&f)
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{SnapshotDir: dir})
	var execs atomic.Int64
	s2.onExec = func(queryKey) { execs.Add(1) }
	res := s2.Do(ctx, findEq("demo/add8", 5))
	if res.Status != "sat" || res.FromSnapshot || execs.Load() != 1 {
		t.Fatalf("stale snapshot consulted: %+v execs=%d", res, execs.Load())
	}
}

// TestSubsumptionDefaultListBound: a query that sets no list_bound is
// solved at zen.DefaultListBound, so its subsumption world must use the
// same bound. A world built with empty lists compiles every predicate
// that needs a list element to false; a cached witness for one such
// predicate then "implies" any other and comes back as a foreign
// witness.
func TestSubsumptionDefaultListBound(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	find := func(pred string) *Request {
		return &Request{Model: "nets/routemap.match-clause", Kind: "find", Predicate: json.RawMessage(pred)}
	}
	// P: clause 1 matches, which needs community 100 in the list.
	p := `{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":1}}}`
	if res := s.Do(ctx, find(p)); res.Status != "sat" || res.Provenance != ProvCold {
		t.Fatalf("P: %q/%q (%s)", res.Status, res.Provenance, res.ErrText())
	}
	// Q: clause 1 matches with a MED P does not constrain. P does not
	// imply Q, so Q needs its own solve and its own witness.
	q := `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":1}}},{"cmp":{"lhs":{"ref":"in.Med"},"op":"eq","rhs":{"lit":12345}}}]}`
	res := s.Do(ctx, find(q))
	if res.Status != "sat" || res.Provenance == ProvSubsumed {
		t.Fatalf("Q: %q/%q, want a sat answer that is not subsumed", res.Status, res.Provenance)
	}
	in, _ := res.Model["in"].(map[string]any)
	if fmt.Sprint(in["Med"]) != "12345" {
		t.Fatalf("Q witness = %v, want Med 12345", res.Model)
	}
}

// TestListBoundValidation: an unset list_bound means zen's default and
// shares cache entries with an explicit one; a negative one is rejected.
func TestListBoundValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	pred := json.RawMessage(`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":2}}}`)
	req := func(bound int) *Request {
		return &Request{Model: "nets/routemap.match-clause", Kind: "find", Predicate: pred, ListBound: bound}
	}
	if res := s.Do(ctx, req(0)); res.Status != "sat" || res.Provenance != ProvCold {
		t.Fatalf("unset bound: %q/%q (%s)", res.Status, res.Provenance, res.ErrText())
	}
	if res := s.Do(ctx, req(zen.DefaultListBound)); !res.Cached() {
		t.Fatalf("explicit default bound: %q, want the cached unset-bound answer", res.Provenance)
	}
	res := s.Do(ctx, req(-1))
	if res.Err == nil || res.Err.Code != ErrBadArgs {
		t.Fatalf("negative bound: %+v, want %s", res, ErrBadArgs)
	}
}
