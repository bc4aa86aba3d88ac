package main

// dataplane-eval: concrete evaluation as a dataplane or test harness runs
// it. One client pushes seeded packets through every evaluation entry
// point users call — Fn.Evaluate (interp), Fn.Compile (compilejit),
// Fn.EvaluateBatch at 1, 64 and 256 packets (bitslice; the route map
// takes the scalar fallback) and /v1/evaluate NDJSON streams — on the
// §8 100-line ACL and a 60-clause route map, and checks every output
// against the plain-Go first-match matcher.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"zen-go/internal/bitslice"
	"zen-go/internal/figgen"
	"zen-go/internal/interp"
	"zen-go/internal/serve"
	"zen-go/nets/acl"
	"zen-go/nets/pkt"
	"zen-go/nets/routemap"
	"zen-go/zen"
)

// dpStep is one kind of op in a cycle: n calls of an entry point, each
// on `size` packets.
type dpStep struct {
	name string
	n    int
	size int
}

// One cycle, in order. The counts put every entry point in the same
// timed loop, so scalar, compiled, batched and streamed evaluation are
// compared on the same packets under the same conditions.
// The counts also shape the latency distribution: the median falls among
// the single-packet calls, p90 among the 64-packet batches and p99 among
// the streams, each inside a cluster rather than on the edge between two.
var dpCycle = []dpStep{
	{"acl/interp", 60, 1},
	{"acl/compiled", 48, 1},
	{"acl/batch", 16, 1},
	{"acl/batch", 8, 64},
	{"acl/batch", 4, 256},
	{"acl/allow-batch", 4, 256},
	{"acl/stream", 4, 256},
	{"rm/interp", 24, 1},
	{"rm/compiled", 24, 1},
	{"rm/batch", 4, 1},
	{"rm/batch", 2, 64},
	{"rm/batch", 1, 256},
}

type dataplane struct {
	cfg      *config
	rules    []acl.Rule
	rm       []routemap.Clause
	lineFn   *zen.Fn[pkt.Header, uint16]
	allowFn  *zen.Fn[pkt.Header, bool]
	rmFn     *zen.Fn[routemap.Route, uint16]
	lineC    func(pkt.Header) uint16
	rmC      func(routemap.Route) uint16
	lift     func(pkt.Header) *interp.Value
	plan     *bitslice.Plan
	srv      *serve.Server
	h        http.Handler
	hdrs     []pkt.Header
	routes   []routemap.Route
	wantLine []int
	wantRM   []int
	streams  map[int][]byte // NDJSON body by first packet index
	tr       dpTrace
}

func runDataplane(cfg *config) (*report, error) {
	rep := &report{}
	start := time.Now()
	d, err := newDataplane(cfg)
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(start)
	defer d.srv.Shutdown(context.Background())
	if cfg.setupOnly {
		return rep, nil
	}
	d.run(rep)
	return rep, nil
}

const (
	dpHeaders = 4096
	dpRoutes  = 1024
)

func newDataplane(cfg *config) (*dataplane, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &dataplane{cfg: cfg, streams: map[int][]byte{}}
	// The models are fixed (the §8 ACL is figgen seed 7); the seed draws
	// the packets.
	a := figgen.ACL(rand.New(rand.NewSource(7)), 100)
	m := figgen.RouteMap(rand.New(rand.NewSource(7)), 60)
	d.rules, d.rm = a.Rules, m.Clauses
	d.lineFn, d.allowFn, d.rmFn = zen.Func(a.MatchLine), zen.Func(a.Allow), zen.Func(m.MatchClause)
	d.lineC, d.rmC = d.lineFn.Compile(), d.rmFn.Compile()
	_, d.lift = d.lineFn.CompileRaw()
	var err error
	if d.plan, err = bitslice.Compile(d.lineFn.Out().Raw(), d.lineFn.Arg().Raw()); err != nil {
		return nil, err
	}

	// Half the packets are uniform; half are drawn inside a random
	// rule's match space, so first matches spread over the whole list.
	for i := 0; i < dpHeaders; i++ {
		h := pkt.Header{DstIP: rng.Uint32(), SrcIP: rng.Uint32(), DstPort: uint16(rng.Intn(65536)),
			SrcPort: uint16(rng.Intn(65536)), Protocol: uint8(rng.Intn(256))}
		if i%2 == 1 {
			h = inBox(rng, aclBox(d.rules[rng.Intn(len(d.rules))]))
		}
		d.hdrs = append(d.hdrs, h)
		d.wantLine = append(d.wantLine, aclFirstMatch(d.rules, h))
	}
	for i := 0; i < dpRoutes; i++ {
		r := randomRoute(rng, d.rm[rng.Intn(len(d.rm))])
		d.routes = append(d.routes, r)
		d.wantRM = append(d.wantRM, rmFirstMatch(d.rm, r))
	}
	if cfg.corruptRefs {
		for i := range d.wantLine {
			d.wantLine[i]++
		}
	}

	d.srv = serve.New(serve.Config{
		Workers: 2, Queue: 16, CacheSize: 256, PortfolioWorkers: 1,
		DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute, Presolve: true,
	})
	d.h = d.srv.Handler()
	if err := createInstance(d.h, "bench/acl", "acl", d.rules); err != nil {
		return nil, err
	}
	for base := 0; base+256 <= dpHeaders; base += 256 {
		var b strings.Builder
		b.WriteString(`{"model":"bench/acl"}` + "\n")
		for _, h := range d.hdrs[base : base+256] {
			item, err := json.Marshal(serve.StreamItem{Args: []json.RawMessage{mustJSON(h)}})
			if err != nil {
				return nil, err
			}
			b.Write(item)
			b.WriteByte('\n')
		}
		d.streams[base] = []byte(b.String())
	}
	// Warm every entry point once (plan caches, instance model); the
	// measured run checks the answers.
	var rep report
	for _, st := range dpCycle {
		d.op(&rep, st, 0, false)
	}
	if rep.failed > 0 {
		return nil, fmt.Errorf("warmup: %s", strings.Join(rep.notes, "; "))
	}
	return d, nil
}

// inBox draws a header inside a rule's match box.
func inBox(rng *rand.Rand, b box) pkt.Header {
	v := make([]uint64, len(b.lo))
	for i := range v {
		v[i] = b.lo[i] + uint64(rng.Int63n(int64(b.hi[i]-b.lo[i]+1)))
	}
	return pkt.Header{DstIP: uint32(v[0]), SrcIP: uint32(v[1]), DstPort: uint16(v[2]), SrcPort: uint16(v[3]), Protocol: uint8(v[4])}
}

// randomRoute draws a route that usually satisfies clause c, with lists
// no longer than routemap.Depth.
func randomRoute(rng *rand.Rand, c routemap.Clause) routemap.Route {
	r := routemap.Route{Prefix: rng.Uint32(), PrefixLen: uint8(rng.Intn(33)), LocalPref: 100}
	for i := rng.Intn(routemap.Depth); i > 0; i-- {
		r.Communities = append(r.Communities, uint32(1+rng.Intn(1000)))
	}
	for i := rng.Intn(routemap.Depth); i > 0; i-- {
		r.AsPath = append(r.AsPath, uint16(1+rng.Intn(64000)))
	}
	switch {
	case len(c.MatchPrefixes) > 0:
		pm := c.MatchPrefixes[0]
		r.Prefix = pm.Pfx.Address | r.Prefix&^prefixMask(pm.Pfx)
		if pm.LE >= pm.GE {
			r.PrefixLen = pm.GE + uint8(rng.Intn(int(pm.LE-pm.GE)+1))
		}
	case c.MatchCommunity != 0 && len(r.Communities) < routemap.Depth:
		r.Communities = append(r.Communities, c.MatchCommunity)
	case c.MatchAsContains != 0 && len(r.AsPath) < routemap.Depth:
		r.AsPath = append(r.AsPath, c.MatchAsContains)
	}
	return r
}

// run issues cycles until the measured time is up. A traced run
// alternates untraced and traced cycles.
func (d *dataplane) run(rep *report) {
	var cycleTime [2]time.Duration
	var cycleOps [2]int
	fallbacks0 := zen.GlobalStats().Snapshot().Bitslice.Fallbacks
	deadline := time.Now().Add(d.cfg.seconds)
	start := time.Now()
	for c := 0; time.Now().Before(deadline); c++ {
		traced := d.cfg.trace && c%2 == 1
		c0 := time.Now()
		ops := 0
		for _, st := range dpCycle {
			for i := 0; i < st.n && time.Now().Before(deadline); i++ {
				d.op(rep, st, c*1000+i, traced)
				ops++
			}
		}
		i := 0
		if traced {
			i = 1
			t0 := time.Now()
			if _, err := bitslice.Compile(d.lineFn.Out().Raw(), d.lineFn.Arg().Raw()); err != nil {
				rep.failed++
			}
			d.tr.planMS = append(d.tr.planMS, ms(time.Since(t0)))
			d.tr.allocs = append(d.tr.allocs, d.batchAllocs(c))
		}
		cycleTime[i] += time.Since(c0)
		cycleOps[i] += ops
	}
	rep.wall = time.Since(start)
	if d.cfg.trace {
		rep.layers = d.tr.metrics()
		rep.layers["bitslice.fallback_pct"] = pct(float64(zen.GlobalStats().Snapshot().Bitslice.Fallbacks-fallbacks0), float64(d.tr.batchCalls))
		if cycleTime[0] > 0 && cycleTime[1] > 0 {
			un := float64(cycleOps[0]) / cycleTime[0].Seconds()
			tr := float64(cycleOps[1]) / cycleTime[1].Seconds()
			rep.layers["trace.overhead_pct"] = pct(un-tr, un)
		}
	}
}

// batchAllocs counts heap allocations of one public 256-packet batch.
func (d *dataplane) batchAllocs(c int) float64 {
	hs := d.window(d.hdrs, c*256, 256)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.lineFn.EvaluateBatch(hs)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// window returns n items of xs starting at a position derived from k.
func (d *dataplane) window(xs []pkt.Header, k, n int) []pkt.Header {
	base := (k * 257) % (len(xs) - n + 1)
	return xs[base : base+n]
}

// op runs one call of a step on packets picked by k, times it and checks
// every output against the reference.
func (d *dataplane) op(rep *report, st dpStep, k int, traced bool) {
	t0 := time.Now()
	var layer time.Duration // time inside the evaluator's own calls
	bad := 0
	switch st.name {
	case "acl/interp", "acl/compiled":
		i := (k * 7919) % dpHeaders
		eval := d.lineFn.Evaluate
		if st.name == "acl/compiled" {
			eval = d.lineC
		}
		l0 := time.Now()
		got := eval(d.hdrs[i])
		layer = time.Since(l0)
		if int(got) != d.wantLine[i] {
			bad++
		}
		if traced {
			d.tr.scalar(st.name == "acl/interp", layer)
		}
	case "rm/interp", "rm/compiled":
		i := (k * 7919) % dpRoutes
		eval := d.rmFn.Evaluate
		if st.name == "rm/compiled" {
			eval = d.rmC
		}
		l0 := time.Now()
		got := eval(d.routes[i])
		layer = time.Since(l0)
		if int(got) != d.wantRM[i] {
			bad++
		}
		if traced {
			d.tr.scalar(st.name == "rm/interp", layer)
		}
	case "acl/batch":
		base := (k * 257) % (dpHeaders - st.size + 1)
		hs := d.hdrs[base : base+st.size]
		var got []uint16
		if traced {
			got, layer = d.tracedBatch(hs)
		} else {
			got = d.lineFn.EvaluateBatch(hs)
			d.tr.batchCalls++
		}
		for j, g := range got {
			if int(g) != d.wantLine[base+j] {
				bad++
			}
		}
	case "acl/allow-batch", "acl/stream":
		base := (k % (dpHeaders / 256)) * 256
		hs := d.hdrs[base : base+256]
		var allow []bool
		var err error
		if st.name == "acl/stream" {
			allow, layer, err = d.stream(base)
		} else {
			l0 := time.Now()
			allow = d.allowFn.EvaluateBatch(hs)
			layer = time.Since(l0)
			d.tr.batchCalls++
		}
		if err != nil {
			rep.failed++
			rep.note("%s: %v", st.name, err)
			bad = 0
			break
		}
		for j, g := range allow {
			w := d.wantLine[base+j]
			if g != (w < len(d.rules) && d.rules[w].Permit) {
				bad++
			}
		}
		if traced {
			d.tr.perItem(st.name == "acl/stream", layer, 256)
		}
	case "rm/batch":
		base := (k * 257) % (dpRoutes - st.size + 1)
		l0 := time.Now()
		got := d.rmFn.EvaluateBatch(d.routes[base : base+st.size])
		layer = time.Since(l0)
		d.tr.batchCalls++
		for j, g := range got {
			if int(g) != d.wantRM[base+j] {
				bad++
			}
		}
	}
	lat := time.Since(t0)
	rep.attempted++
	rep.packets += int64(st.size)
	if bad > 0 {
		rep.wrong++
		rep.note("%s x%d: %d outputs differ from the reference", st.name, st.size, bad)
	}
	if traced {
		d.tr.opMS = append(d.tr.opMS, ms(lat))
		d.tr.layerMS += ms(layer)
	} else {
		rep.latMS = append(rep.latMS, ms(lat))
	}
}

// tracedBatch evaluates headers through the bitslice plan's public calls
// in the order EvaluateBatch makes them, timing each.
func (d *dataplane) tracedBatch(hs []pkt.Header) ([]uint16, time.Duration) {
	out := make([]uint16, 0, len(hs))
	regs := d.plan.AcquireRegs()
	defer d.plan.ReleaseRegs(regs)
	id := d.lineFn.Arg().Raw().VarID
	var layer time.Duration
	vals := make([]*interp.Value, 0, bitslice.Lanes)
	for base := 0; base < len(hs); base += bitslice.Lanes {
		n := min(len(hs)-base, bitslice.Lanes)
		vals = vals[:0]
		for _, h := range hs[base : base+n] {
			vals = append(vals, d.lift(h))
		}
		t0 := time.Now()
		if err := d.plan.BindLanes(regs, id, vals); err != nil {
			panic(err)
		}
		t1 := time.Now()
		d.plan.Run(regs)
		t2 := time.Now()
		lanes := make([]*interp.Value, n)
		for lane := range lanes {
			lanes[lane] = d.plan.Lane(regs, lane)
		}
		t3 := time.Now()
		for _, v := range lanes {
			out = append(out, uint16(v.U))
		}
		d.tr.bind += t1.Sub(t0)
		d.tr.run += t2.Sub(t1)
		d.tr.lane += t3.Sub(t2)
		layer += t3.Sub(t0)
	}
	d.tr.batchPackets += len(hs)
	return out, layer
}

// stream POSTs one pre-encoded 256-item NDJSON stream, times the
// handler, and decodes the allow verdict of each item.
func (d *dataplane) stream(base int) ([]bool, time.Duration, error) {
	req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(string(d.streams[base])))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	d.h.ServeHTTP(rec, req)
	handler := time.Since(t0)
	if rec.Code != http.StatusOK {
		return nil, handler, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 256+2 {
		return nil, handler, fmt.Errorf("%d response lines, want %d", len(lines), 256+2)
	}
	out := make([]bool, 256)
	for _, line := range lines[1 : len(lines)-1] {
		var r struct {
			Index  int64  `json:"index"`
			Status string `json:"verdict"`
			Value  bool   `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Status != "ok" || r.Index < 0 || r.Index >= 256 {
			return nil, handler, fmt.Errorf("result line %s", line)
		}
		out[r.Index] = r.Value
	}
	return out, handler, nil
}

// dpTrace accumulates the traced cycles' measurements.
type dpTrace struct {
	opMS, planMS, allocs     []float64
	layerMS                  float64
	interp, compiled         time.Duration
	interpN, compiledN       int
	bind, run, lane          time.Duration
	batchPackets, batchCalls int
	stream, allowBatch       time.Duration
	streamN, allowN          int
}

func (t *dpTrace) scalar(isInterp bool, d time.Duration) {
	if isInterp {
		t.interp += d
		t.interpN++
	} else {
		t.compiled += d
		t.compiledN++
	}
}

func (t *dpTrace) perItem(isStream bool, d time.Duration, n int) {
	if isStream {
		t.stream += d
		t.streamN += n
	} else {
		t.allowBatch += d
		t.allowN += n
	}
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func (t *dpTrace) metrics() map[string]float64 {
	var opTotal float64
	for _, x := range t.opMS {
		opTotal += x
	}
	return map[string]float64{
		"interp.ns_per_packet":              nsPer(t.interp, t.interpN),
		"compilejit.ns_per_packet":          nsPer(t.compiled, t.compiledN),
		"bitslice.plan_ms":                  mean(t.planMS),
		"bitslice.bind_ns_per_packet":       nsPer(t.bind, t.batchPackets),
		"bitslice.run_ns_per_packet":        nsPer(t.run, t.batchPackets),
		"bitslice.lane_ns_per_packet":       nsPer(t.lane, t.batchPackets),
		"bitslice.allocs_per_batch":         mean(t.allocs),
		"serve.stream_overhead_ns_per_item": nsPer(t.stream, t.streamN) - nsPer(t.allowBatch, t.allowN),
		"trace.unattributed_pct":            pct(opTotal-t.layerMS, opTotal),
	}
}
