package main

// Answer references that share no code with the layers under test: plain
// Go first-match matchers over the generated rule lists, and a box-cover
// decision for "can any input reach line k" that settles unsat verdicts
// without a solver.

import (
	"fmt"
	"math"

	"zen-go/nets/acl"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
)

// aclFirstMatch is the index of the first rule matching h, len(rules)
// when none does.
func aclFirstMatch(rules []acl.Rule, h pkt.Header) int {
	for i, r := range rules {
		if aclRuleMatches(r, h) {
			return i
		}
	}
	return len(rules)
}

func aclRuleMatches(r acl.Rule, h pkt.Header) bool {
	if h.SrcIP&prefixMask(r.SrcPfx) != r.SrcPfx.Address || h.DstIP&prefixMask(r.DstPfx) != r.DstPfx.Address {
		return false
	}
	if (r.SrcLow != 0 || r.SrcHigh != 0) && (h.SrcPort < r.SrcLow || h.SrcPort > r.SrcHigh) {
		return false
	}
	if (r.DstLow != 0 || r.DstHigh != 0) && (h.DstPort < r.DstLow || h.DstPort > r.DstHigh) {
		return false
	}
	return r.Protocol == 0 || h.Protocol == r.Protocol
}

// aclAllows is first-match permit/deny with an implicit deny.
func aclAllows(rules []acl.Rule, h pkt.Header) bool {
	i := aclFirstMatch(rules, h)
	return i < len(rules) && rules[i].Permit
}

func prefixMask(p pkt.Prefix) uint32 {
	if p.Length == 0 {
		return 0
	}
	return math.MaxUint32 << (32 - uint32(p.Length))
}

// boundedHas reports whether the first routemap.Depth elements of xs
// contain x: the models' list matching looks no deeper.
func boundedHas[T comparable](xs []T, x T) bool {
	for i, y := range xs {
		if i >= routemap.Depth {
			break
		}
		if y == x {
			return true
		}
	}
	return false
}

func rmClauseMatches(c routemap.Clause, r routemap.Route) bool {
	if len(c.MatchPrefixes) > 0 {
		any := false
		for _, pm := range c.MatchPrefixes {
			if r.Prefix&prefixMask(pm.Pfx) == pm.Pfx.Address && r.PrefixLen >= pm.GE && r.PrefixLen <= pm.LE {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	if c.MatchCommunity != 0 && !boundedHas(r.Communities, c.MatchCommunity) {
		return false
	}
	return c.MatchAsContains == 0 || boundedHas(r.AsPath, c.MatchAsContains)
}

// rmFirstMatch is the index of the first clause matching r, len(clauses)
// when none does.
func rmFirstMatch(clauses []routemap.Clause, r routemap.Route) int {
	for i, c := range clauses {
		if rmClauseMatches(c, r) {
			return i
		}
	}
	return len(clauses)
}

// rmApply is route-map evaluation: the first matching clause decides, a
// permit applies its set actions, a deny or no match drops the route.
func rmApply(clauses []routemap.Clause, r routemap.Route) (routemap.Route, bool) {
	i := rmFirstMatch(clauses, r)
	if i == len(clauses) || !clauses[i].Permit {
		return routemap.Route{}, false
	}
	c := clauses[i]
	out := r
	if c.SetLocalPref != 0 {
		out.LocalPref = c.SetLocalPref
	}
	if c.SetMed != 0 {
		out.Med = c.SetMed
	}
	if c.SetNextHop != 0 {
		out.NextHop = c.SetNextHop
	}
	if c.AddCommunity != 0 {
		out.Communities = append([]uint32{c.AddCommunity}, r.Communities...)
	}
	if c.PrependAs != 0 {
		out.AsPath = append([]uint16{c.PrependAs}, r.AsPath...)
	}
	return out, true
}

// box is a product of closed integer intervals, one per dimension.
type box struct{ lo, hi []uint64 }

func (b box) empty() bool {
	for d := range b.lo {
		if b.lo[d] > b.hi[d] {
			return true
		}
	}
	return false
}

func (b box) meets(o box) bool {
	for d := range b.lo {
		if b.hi[d] < o.lo[d] || o.hi[d] < b.lo[d] {
			return false
		}
	}
	return true
}

func (b box) clone() box {
	return box{append([]uint64(nil), b.lo...), append([]uint64(nil), b.hi...)}
}

// covered decides whether b lies inside the union of others: the first
// box that meets b covers the overlap, and every slab of b outside it
// must be covered by the boxes after it. budget bounds the recursion.
func covered(b box, others []box, budget *int) bool {
	if *budget--; *budget < 0 {
		panic("box cover: recursion budget exhausted")
	}
	if b.empty() {
		return true
	}
	for i, o := range others {
		if !b.meets(o) {
			continue
		}
		rest := b.clone()
		for d := range rest.lo {
			if rest.lo[d] < o.lo[d] {
				slab := rest.clone()
				slab.hi[d] = o.lo[d] - 1
				if !covered(slab, others[i+1:], budget) {
					return false
				}
				rest.lo[d] = o.lo[d]
			}
			if rest.hi[d] > o.hi[d] {
				slab := rest.clone()
				slab.lo[d] = o.hi[d] + 1
				if !covered(slab, others[i+1:], budget) {
					return false
				}
				rest.hi[d] = o.hi[d]
			}
		}
		return true
	}
	return false
}

func prefixRange(p pkt.Prefix) (uint64, uint64) {
	m := prefixMask(p)
	return uint64(p.Address), uint64(p.Address | ^m)
}

func portRange(lo, hi uint16) (uint64, uint64) {
	if lo == 0 && hi == 0 {
		return 0, math.MaxUint16
	}
	return uint64(lo), uint64(hi)
}

// aclBox is the header space a rule matches: dst IP, src IP, dst port,
// src port, protocol.
func aclBox(r acl.Rule) box {
	b := box{lo: make([]uint64, 5), hi: make([]uint64, 5)}
	b.lo[0], b.hi[0] = prefixRange(r.DstPfx)
	b.lo[1], b.hi[1] = prefixRange(r.SrcPfx)
	b.lo[2], b.hi[2] = portRange(r.DstLow, r.DstHigh)
	b.lo[3], b.hi[3] = portRange(r.SrcLow, r.SrcHigh)
	b.lo[4], b.hi[4] = 0, math.MaxUint8
	if r.Protocol != 0 {
		b.lo[4], b.hi[4] = uint64(r.Protocol), uint64(r.Protocol)
	}
	return b
}

// aclReachable reports whether some header's first match is line k.
func aclReachable(rules []acl.Rule, k int) bool {
	b := aclBox(rules[k])
	var meet []box
	for _, r := range rules[:k] {
		if o := aclBox(r); o.meets(b) {
			meet = append(meet, o)
		}
	}
	budget := 1 << 20
	return !covered(b, meet, &budget)
}

// rmReachable reports whether some route (with lists no longer than
// routemap.Depth) first matches clause k. It handles the clause shapes
// figgen.RouteMap generates: at most one condition per clause, and at
// most one prefix-list entry. A route that must avoid an earlier
// community or AS-path clause simply leaves that value out, unless
// clause k itself requires it; prefix clauses are avoided geometrically
// in (address, length) space.
func rmReachable(clauses []routemap.Clause, k int) (bool, error) {
	full := box{lo: []uint64{0, 0}, hi: []uint64{math.MaxUint32, math.MaxUint8}}
	shape := func(c routemap.Clause) (box, error) {
		n := 0
		if len(c.MatchPrefixes) > 0 {
			n++
		}
		if c.MatchCommunity != 0 {
			n++
		}
		if c.MatchAsContains != 0 {
			n++
		}
		if n > 1 || len(c.MatchPrefixes) > 1 {
			return box{}, fmt.Errorf("clause %+v: more than one condition", c)
		}
		if len(c.MatchPrefixes) == 0 {
			return full.clone(), nil
		}
		pm := c.MatchPrefixes[0]
		lo, hi := prefixRange(pm.Pfx)
		return box{lo: []uint64{lo, uint64(pm.GE)}, hi: []uint64{hi, uint64(pm.LE)}}, nil
	}
	target := clauses[k]
	want, err := shape(target)
	if err != nil {
		return false, err
	}
	var avoid []box
	for _, c := range clauses[:k] {
		b, err := shape(c)
		if err != nil {
			return false, err
		}
		switch {
		case len(c.MatchPrefixes) > 0:
			avoid = append(avoid, b)
		case c.MatchCommunity != 0:
			if c.MatchCommunity == target.MatchCommunity {
				return false, nil
			}
		case c.MatchAsContains != 0:
			if c.MatchAsContains == target.MatchAsContains {
				return false, nil
			}
		default:
			return false, nil // an unconditional clause shadows everything after it
		}
	}
	budget := 1 << 20
	return !covered(want, avoid, &budget), nil
}
