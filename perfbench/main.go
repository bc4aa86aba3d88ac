// Command perfbench is zen-go's benchmark: three seeded, closed-loop
// workloads, each run in its own process against the public entry points
// of zen, internal/serve and the concrete evaluators.
//
//	perfbench -workload fig10-verify -seed 1 -seconds 20 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics and checks
// every answer against a reference that does not use the layer under
// test. A traced run (-trace 1) times the calls into each layer's public
// functions and reports the per-layer metrics. -setup-only stops after
// set-up and reports its duration. The last line of standard output is
// one JSON object; README.md documents the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	setupOnly bool
	// inject delays one layer boundary, for the attribution self-test.
	inject      map[string]time.Duration
	corruptRefs bool
}

// delay sleeps for the injected delay at the named boundary, if any.
func (c *config) delay(layer string) {
	if d := c.inject[layer]; d > 0 {
		time.Sleep(d)
	}
}

// report is what a workload hands back to main.
type report struct {
	setup     time.Duration
	attempted int64
	failed    int64
	wrong     int64
	latMS     []float64 // per-op latency of the timed ops
	packets   int64     // concrete packets delivered to or by the caller
	wall      time.Duration
	layers    map[string]float64 // traced runs only
	notes     []string           // human-readable lines for stderr
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*report, error){
	"fig10-verify":   runFig10,
	"zend-mix":       runZendMix,
	"dataplane-eval": runDataplane,
}

// perLayer lists every per-layer metric and its unit; a workload that
// bypasses a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"zen.build_ms", "ms"},
	{"core.dag_nodes", "count"},
	{"absint.presolve_ms", "ms"},
	{"absint.nodes_removed_pct", "%"},
	{"absint.auto_sat_pct", "%"},
	{"sym.eval_ms", "ms"},
	{"bdd.nodes", "count"},
	{"bdd.cache_hit_pct", "%"},
	{"sat.solve_ms", "ms"},
	{"sat.clauses", "count"},
	{"sat.conflicts", "count"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.clauses_imported", "count"},
	{"zen.decode_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cached_p50_ms", "ms"},
	{"serve.subsumed_p50_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.update_p50_ms", "ms"},
	{"serve.delta_reused_pct", "%"},
	{"serve.cache_hit_pct", "%"},
	{"serve.subsumed_pct", "%"},
	{"serve.solves_per_query", "count"},
	{"serve.shed_pct", "%"},
	{"interp.ns_per_packet", "ns"},
	{"compilejit.ns_per_packet", "ns"},
	{"bitslice.plan_ms", "ms"},
	{"bitslice.bind_ns_per_packet", "ns"},
	{"bitslice.run_ns_per_packet", "ns"},
	{"bitslice.lane_ns_per_packet", "ns"},
	{"bitslice.fallback_pct", "%"},
	{"bitslice.allocs_per_batch", "count"},
	{"serve.stream_overhead_ns_per_item", "ns"},
	{"trace.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "fig10-verify, zend-mix or dataplane-eval")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 for a traced run (per-layer metrics)")
		setup   = flag.Bool("setup-only", false, "stop after set-up and report setup_s")
		inject  = flag.String("inject", "", "layer=duration[,layer=duration]: delay a layer boundary (self-test)")
		corrupt = flag.Bool("corrupt-reference", false, "corrupt the answer reference (self-test: the run must fail)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := &config{
		seed:        *seed,
		seconds:     time.Duration(*seconds * float64(time.Second)),
		trace:       *trace == 1,
		setupOnly:   *setup,
		corruptRefs: *corrupt,
	}
	var err error
	if cfg.inject, err = parseInject(*inject); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -inject: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.setupOnly {
		printJSON(map[string]float64{"setup_s": rep.setup.Seconds()})
		return
	}
	for _, n := range rep.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *name, n)
	}
	res := result{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed + rep.wrong,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{rep.layers[m.name], m.unit}
		}
	} else {
		lat := append([]float64(nil), rep.latMS...)
		sort.Float64s(lat)
		wall := rep.wall.Seconds()
		res.Metrics["setup_s"] = metric{rep.setup.Seconds(), "s"}
		res.Metrics["ops_per_s"] = metric{float64(len(lat)) / wall, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{quantile(lat, 0.90), "ms"}
		res.Metrics["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["packets_per_s"] = metric{float64(rep.packets) / wall, "1/s"}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs, %d failed, %d wrong answers, failed_pct=%.3f\n",
			*name, len(lat), wall, rep.failed, rep.wrong, 100*float64(rep.failed+rep.wrong)/float64(max(rep.attempted, 1)))
	}
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func parseInject(s string) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("want layer=duration, got %q", kv)
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, err
		}
		out[k] = d
	}
	return out, nil
}

// phi is the golden-ratio fraction: stepping by it from any start walks
// [0,1) evenly, so every stretch of a seeded sequence has the same mix.
const phi = 0.6180339887498949

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// pct is 100*a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
