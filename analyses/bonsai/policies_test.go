package bonsai

import (
	"fmt"
	"runtime"
	"testing"

	"zen-go/nets/bgp"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

// collect makes every node only the builder's table references
// collectable, then collects it.
func collect() {
	zen.Builder().Sweep()
	runtime.GC()
}

// TestPolicyNumberingSurvivesSweep checks that equal route maps get one
// number when the builder sweeps and the collector runs between their
// signatures: a dropped policy DAG is freed, so its root's identity
// cannot serve as the signature.
func TestPolicyNumberingSurvivesSweep(t *testing.T) {
	mk := func() *routemap.RouteMap {
		return &routemap.RouteMap{Clauses: []routemap.Clause{{Permit: true, SetLocalPref: 777}}}
	}
	p := newPolicies()
	first := p.id(mk())

	// The premise: a policy DAG nobody holds comes back with a new root.
	shared := zen.Symbolic[bgp.Route]("premise")
	before := mk().Apply(shared).Raw().ID()
	collect()
	if after := mk().Apply(shared).Raw().ID(); after == before {
		t.Fatalf("dropped policy DAG kept its root (id %d): nothing was freed", before)
	}

	if again := p.id(mk()); again != first {
		t.Fatalf("equal policies numbered %d and %d across a sweep", first, again)
	}
}

// TestCompressStableAcrossSweep checks that Compress partitions the same
// way whether or not a sweep and a collection ran before it.
func TestCompressStableAcrossSweep(t *testing.T) {
	n := &bgp.Network{}
	src := n.AddRouter("SRC", 100)
	dst := n.AddRouter("DST", 200)
	src.Originates = true
	src.Origin = bgp.Route{Prefix: pkt.IP(203, 0, 113, 0), PrefixLen: 24, LocalPref: 100}
	for i := 0; i < 6; i++ {
		sp := n.AddRouter(fmt.Sprintf("SPINE%d", i), 300)
		n.ConnectBoth(src, sp)
		n.ConnectBoth(sp, dst)
	}
	for _, s := range n.Sessions {
		if s.From == src {
			// A fresh but equal map per session, half with a second clause.
			rm := &routemap.RouteMap{Clauses: []routemap.Clause{{Permit: true, SetLocalPref: 250}}}
			if s.To.Name >= "SPINE3" {
				deny := routemap.Clause{MatchPrefixes: []routemap.PrefixMatch{{Pfx: pkt.Pfx(10, 0, 0, 0, 8), GE: 8, LE: 24}}}
				rm.Clauses = append([]routemap.Clause{deny}, rm.Clauses...)
			}
			s.Import = rm
		}
	}
	partition := func() map[string]string {
		ab := Compress(n)
		out := map[string]string{}
		for _, r := range n.Routers {
			out[r.Name] = ab.Classes[ab.ClassOf[r]][0].Name
		}
		return out
	}
	want := partition()
	collect()
	got := partition()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("partition changed across a sweep:\n  before %v\n  after  %v", want, got)
	}
	if classes := len(Compress(n).Classes); classes != 4 {
		t.Fatalf("classes = %d, want 4 (src, dst, two spine policies)", classes)
	}
}
