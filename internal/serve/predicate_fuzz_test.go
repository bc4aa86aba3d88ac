package serve

import (
	"encoding/json"
	"testing"

	"zen-go/internal/core"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
)

// FuzzCompilePredicate runs arbitrary bytes through the predicate
// compiler and the argument decoder against a route map's Apply, whose
// argument is an object of bitvectors and lists and whose output is an
// option (an object with a bool Ok). Neither may panic; a compiled
// predicate is boolean; and compiling the same bytes twice yields the
// same node, the property the cache fingerprint rests on.
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzCompilePredicate$' -fuzztime 10s
func FuzzCompilePredicate(f *testing.F) {
	m := buildRMModel([]routemap.Clause{
		{Permit: false, MatchPrefixes: []routemap.PrefixMatch{{Pfx: pkt.Pfx(10, 0, 0, 0, 8), GE: 25, LE: 32}}},
		{Permit: true, MatchCommunity: 100, SetLocalPref: 200, AddCommunity: 999},
		{Permit: true, PrependAs: 65000},
	})
	r := &resolver{args: m.QueryArgs(), out: m.QueryOut()}
	route := `{"Prefix":167772160,"PrefixLen":24,"LocalPref":100,"Med":0,"NextHop":1,"AsPath":[1,2],"Communities":[100]}`
	for _, pred := range []string{
		// docs/serve.md and the serve smoke check.
		`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":7}}}`,
		`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":3037000493}}}`,
		`{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"ref":"in"}}}`,
		`{"all":[{"ref":"out"},{"cmp":{"lhs":{"ref":"in.DstPort"},"op":"eq","rhs":{"lit":80}}}]}`,
		`{"ref":"out.HasValue"}`,
		`{"cmp":{"lhs":{"ref":"out.DstIp"},"op":"eq","rhs":{"lit":7}}}`,
		// Paths that exist on the route map's argument and output.
		`{"all":[{"ref":"out.Ok"},{"cmp":{"lhs":{"ref":"out.Val.LocalPref"},"op":"ge","rhs":{"lit":200}}}]}`,
		`{"any":[{"not":{"ref":"out.Ok"}},{"cmp":{"lhs":{"ref":"in.PrefixLen"},"op":"lt","rhs":{"ref":"out.Val.PrefixLen"}}}]}`,
		`{"cmp":{"lhs":{"ref":"in.AsPath"},"op":"eq","rhs":{"lit":[65000,1]}}}`,
		`{"cmp":{"lhs":{"ref":"in0"},"op":"eq","rhs":{"lit":` + route + `}}}`,
	} {
		f.Add([]byte(pred), []byte(`[`+route+`]`))
	}
	f.Add([]byte(`{"ref":"in.Communities"}`), []byte(`[41]`))
	f.Add([]byte(`{"not":{}}`), []byte(route))

	f.Fuzz(func(t *testing.T, pred, args []byte) {
		if n, err := compilePredicate(pred, r); err == nil {
			if n.Type.Kind != core.KindBool {
				t.Fatalf("predicate %q compiled to a %s root", pred, n.Type)
			}
			again, err := compilePredicate(pred, r)
			if err != nil || again != n {
				t.Fatalf("predicate %q compiled to %p, then to (%p, %v)", pred, n, again, err)
			}
		}
		var raws []json.RawMessage
		if json.Unmarshal(args, &raws) == nil {
			_, _ = decodeArgs(m.QueryArgs(), raws)
		}
		_, _ = decodeArgs(m.QueryArgs(), []json.RawMessage{args})
	})
}
