// Package bonsai implements Bonsai-style control-plane compression on the
// Zen BGP model: routers are partitioned into equivalence classes by
// iterative refinement over (origination, import/export policy, neighbor
// class) signatures, and a smaller abstract network with one router per
// class is produced.
//
// Policy equality — the expensive part of the original tool — is free here:
// route maps applied to a shared symbolic route build hash-consed Zen
// expression DAGs, so two policies are equal exactly when their DAG roots
// are the same pointer (while both are held; see policies).
package bonsai

import (
	"fmt"
	"sort"

	"zen-go/internal/core"
	"zen-go/nets/bgp"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

// Abstraction is a partition of the routers into behavioral classes plus
// the compressed network built from it.
type Abstraction struct {
	// Classes lists the routers of each class.
	Classes [][]*bgp.Router
	// ClassOf maps each concrete router to its class index.
	ClassOf map[*bgp.Router]int
	// Abstract is the compressed network: one router per class.
	Abstract *bgp.Network
	// Repr maps each class to its abstract router.
	Repr []*bgp.Router
}

// Compress partitions the network's routers and builds the abstract
// network.
func Compress(n *bgp.Network) *Abstraction {
	sigOf := newPolicies().id

	// Initial partition: by origination behavior.
	classOf := make(map[*bgp.Router]int, len(n.Routers))
	keys := make(map[string]int)
	for _, r := range n.Routers {
		k := fmt.Sprintf("orig=%v;%+v", r.Originates, r.Origin)
		id, ok := keys[k]
		if !ok {
			id = len(keys)
			keys[k] = id
		}
		classOf[r] = id
	}

	// Refine: split classes by the set of (neighbor class, export sig,
	// import sig) over incoming sessions, until stable.
	for {
		next := make(map[*bgp.Router]int, len(n.Routers))
		nextKeys := make(map[string]int)
		for _, r := range n.Routers {
			sigs := make([]string, 0, len(r.In))
			for _, s := range r.In {
				sigs = append(sigs, fmt.Sprintf("(%d,%d,%d)",
					classOf[s.From], sigOf(s.Export), sigOf(s.Import)))
			}
			sort.Strings(sigs)
			// Set semantics: duplicates collapse (∀∃-abstraction).
			dedup := sigs[:0]
			for i, s := range sigs {
				if i == 0 || s != sigs[i-1] {
					dedup = append(dedup, s)
				}
			}
			k := fmt.Sprintf("c%d|%v", classOf[r], dedup)
			id, ok := nextKeys[k]
			if !ok {
				id = len(nextKeys)
				nextKeys[k] = id
			}
			next[r] = id
		}
		if samePartition(n, classOf, next) {
			break
		}
		classOf = next
	}

	ab := &Abstraction{ClassOf: classOf}
	nClasses := 0
	for _, c := range classOf {
		if c+1 > nClasses {
			nClasses = c + 1
		}
	}
	ab.Classes = make([][]*bgp.Router, nClasses)
	for _, r := range n.Routers {
		ab.Classes[classOf[r]] = append(ab.Classes[classOf[r]], r)
	}

	// Build the abstract network: one representative per class; one
	// session per distinct (fromClass -> toClass, policy) edge.
	ab.Abstract = &bgp.Network{}
	ab.Repr = make([]*bgp.Router, nClasses)
	for c, members := range ab.Classes {
		rep := members[0]
		a := ab.Abstract.AddRouter(fmt.Sprintf("class%d(%s)", c, rep.Name), rep.ASN)
		a.Originates = rep.Originates
		a.Origin = rep.Origin
		ab.Repr[c] = a
	}
	seen := map[string]bool{}
	for _, s := range n.Sessions {
		fc, tc := classOf[s.From], classOf[s.To]
		k := fmt.Sprintf("%d>%d|%d|%d", fc, tc, sigOf(s.Export), sigOf(s.Import))
		if seen[k] {
			continue
		}
		seen[k] = true
		ab.Abstract.Connect(ab.Repr[fc], ab.Repr[tc], s.Export, s.Import)
	}
	return ab
}

// policies numbers route maps by behavior: equal policies applied to one
// shared symbolic route build the same hash-consed DAG root. The builder
// frees nodes nobody references, so a policy built after its equal twin
// was dropped could get a fresh root; policies holds every root it has
// numbered, which keeps the numbering stable for as long as it lives.
type policies struct {
	shared zen.Value[bgp.Route]
	roots  map[*core.Node]int
	of     map[*routemap.RouteMap]int
}

func newPolicies() *policies {
	return &policies{
		shared: zen.Symbolic[bgp.Route]("bonsai.shared"),
		roots:  make(map[*core.Node]int),
		of:     map[*routemap.RouteMap]int{nil: 0},
	}
}

// id returns the policy number of rm; 0 is the absent policy.
func (p *policies) id(rm *routemap.RouteMap) int {
	if id, ok := p.of[rm]; ok {
		return id
	}
	root := rm.Apply(p.shared).Raw()
	id, ok := p.roots[root]
	if !ok {
		id = len(p.roots) + 1
		p.roots[root] = id
	}
	p.of[rm] = id
	return id
}

func samePartition(n *bgp.Network, a, b map[*bgp.Router]int) bool {
	rename := map[int]int{}
	for _, r := range n.Routers {
		if to, ok := rename[a[r]]; ok {
			if to != b[r] {
				return false
			}
		} else {
			rename[a[r]] = b[r]
		}
	}
	// Also require the same number of classes both ways.
	inv := map[int]bool{}
	for _, v := range rename {
		if inv[v] {
			return false
		}
		inv[v] = true
	}
	return true
}

// NumClasses returns the size of the compressed network.
func (a *Abstraction) NumClasses() int { return len(a.Classes) }

// CompressionRatio returns concrete routers per abstract router.
func (a *Abstraction) CompressionRatio(n *bgp.Network) float64 {
	return float64(len(n.Routers)) / float64(a.NumClasses())
}
