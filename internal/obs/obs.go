// Package obs is Zen's zero-dependency telemetry layer: counters, phase
// timers and pluggable tracing for every analysis backend.
//
// The paper's architecture routes one model through many solvers
// (interpretation, BDD, SAT, state sets, compilation), so performance work
// needs visibility into what each backend actually did — how large the
// expression DAG was, how the analysis time split across DAG build /
// symbolic evaluation / solving / decoding, how many BDD nodes were
// allocated and with what cache hit rate, how many clauses, decisions and
// conflicts the CDCL search spent. This package is the single vocabulary
// for those measurements:
//
//   - Snapshot is a plain, copyable record of counters and phase timings.
//   - SnapshotMetrics is the counter table: one row per Snapshot counter
//     drives the merge, Rec.Add, the /metrics exposition and the stable
//     family check (see metric.go).
//   - Stats is a mutex-guarded accumulator of Snapshots; analyses attach
//     one via zen.WithStats and read it back after the call.
//   - Tracer/Span is the pluggable tracing hook: each analysis opens a
//     span and emits one event per phase.
//   - Rec is the per-analysis recorder used by instrumentation sites; it
//     merges into the attached Stats and the process-wide Global aggregate
//     when closed.
//
// Instrumentation is designed to cost nothing when unobserved: per-
// operation hot paths (BDD mk/Ite, SAT propagation) keep their own cheap
// native counters that are only harvested once per analysis, and the
// expensive DAG measurement runs only when a Stats is attached. The Global
// aggregate is exposed to expvar and an optional /debug/zenstats endpoint
// (see http.go).
package obs

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"
)

// DAGStats summarizes the expression DAG of an analysis, as computed by
// core.Measure. Merging keeps the maximum (the largest DAG analyzed).
type DAGStats struct {
	Nodes int64 `json:"nodes"`
	Depth int64 `json:"depth"`
	Vars  int64 `json:"vars"`
}

// BDDStats are cumulative counters harvested from BDD managers.
type BDDStats struct {
	// Nodes is the number of allocated nonterminal BDD nodes.
	Nodes int64 `json:"nodes"`
	// CacheHits and CacheMisses count lookups in the operation
	// (ITE/quantification) memo cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// UniqueHits counts unique-table lookups that found an existing node
	// (the complement of Nodes, which counts the misses that allocated).
	UniqueHits int64 `json:"unique_hits"`
}

// CacheHitRate returns the fraction of operation-cache lookups that hit,
// or 0 when no lookups were recorded.
func (b BDDStats) CacheHitRate() float64 {
	total := b.CacheHits + b.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(b.CacheHits) / float64(total)
}

// UniqueHitRate returns the fraction of unique-table lookups that found an
// existing node, or 0 when no lookups were recorded.
func (b BDDStats) UniqueHitRate() float64 {
	total := b.UniqueHits + b.Nodes
	if total == 0 {
		return 0
	}
	return float64(b.UniqueHits) / float64(total)
}

// SATStats are cumulative counters harvested from CDCL solvers.
type SATStats struct {
	Vars         int64 `json:"vars"`
	Clauses      int64 `json:"clauses"`
	Learned      int64 `json:"learned"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
}

// PortfolioStats count solver-portfolio activity (internal/portfolio):
// strategy races, their winners, and how quickly race losers acknowledged
// cancellation.
type PortfolioStats struct {
	// Races counts portfolio queries (each races >= 2 strategies).
	Races int64 `json:"races"`
	// WinsBy breaks Races down by winning strategy ("bdd", "sat").
	WinsBy map[string]int64 `json:"wins_by,omitempty"`
	// ClausesImported is always zero: nothing writes it since SAT workers
	// stopped sharing clauses. It stays only because the perfbench module
	// still reads it; it is merged but neither exported nor serialized.
	ClausesImported int64 `json:"-"`
	// LoserAborts counts losing participants torn down: the BDD strategy
	// plus every SAT worker, minus the winner. LoserAbortNs is the
	// accumulated wall time between the winner's answer and the last
	// loser's exit (cancellation latency).
	LoserAborts  int64 `json:"loser_aborts"`
	LoserAbortNs int64 `json:"loser_abort_ns"`
}

// CompileStats count model compilations (§8).
type CompileStats struct {
	Compiles     int64 `json:"compiles"`
	Instructions int64 `json:"instructions"`
	Registers    int64 `json:"registers"`
}

// BitsliceStats count batch-evaluation activity (internal/bitslice):
// plans compiled, batches executed, packets pushed through them, and
// scalar fallbacks for models outside the bitslice fragment.
type BitsliceStats struct {
	// Plans counts bitslice plan compilations; PlanOps and PlanRegs
	// accumulate their instruction and register counts.
	Plans    int64 `json:"plans"`
	PlanOps  int64 `json:"plan_ops"`
	PlanRegs int64 `json:"plan_regs"`
	// Batches counts 64-lane plan executions; Packets counts the inputs
	// evaluated through them (the last batch of a call may be partial).
	Batches int64 `json:"batches"`
	Packets int64 `json:"packets"`
	// Fallbacks counts batch calls served by the scalar path because the
	// model uses lists.
	Fallbacks int64 `json:"fallbacks"`
}

// StateSetStats count state-set transformer activity (§4/§6).
type StateSetStats struct {
	Transformers int64 `json:"transformers"`
	FreshSpaces  int64 `json:"fresh_spaces"`
	Forwards     int64 `json:"forwards"`
	Reverses     int64 `json:"reverses"`
}

// FuzzStats count differential-fuzzing campaign activity (internal/fuzz).
type FuzzStats struct {
	// Execs counts generated queries pushed through the full oracle.
	Execs int64 `json:"execs"`
	// Divergences counts oracle failures (cross-backend disagreements).
	Divergences int64 `json:"divergences"`
	// Shrinks counts oracle re-runs spent minimizing divergences.
	Shrinks int64 `json:"shrinks"`
}

// ServeStats count verification-service activity (internal/serve): query
// traffic, result-cache effectiveness, singleflight coalescing, and load
// shedding. Latency quantiles live in the server itself (they are not
// additive); these counters are what merges meaningfully across
// processes and snapshots.
type ServeStats struct {
	// Queries counts queries accepted for execution (cache hits and
	// coalesced waits included; shed requests are not).
	Queries int64 `json:"queries"`
	// CacheHits and CacheMisses count result-cache lookups for cacheable
	// queries.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Subsumed counts queries answered by implication from a cached
	// result (the subsumption index), without a solve.
	Subsumed int64 `json:"subsumed"`
	// SnapshotHits counts cache hits served from a persisted snapshot
	// written by a previous process.
	SnapshotHits int64 `json:"snapshot_hits"`
	// Coalesced counts queries that waited on an identical in-flight
	// query instead of executing (singleflight followers).
	Coalesced int64 `json:"coalesced"`
	// Shed counts queries rejected because the queue was full or the
	// server was draining.
	Shed int64 `json:"shed"`
	// Cancelled counts queries cut by deadline or client cancellation.
	Cancelled int64 `json:"cancelled"`
	// Errors counts queries that failed to parse or execute.
	Errors int64 `json:"errors"`
	// Updates counts /v1/update delta applications against model
	// instances; DeltaReused and DeltaReverified count the tracked
	// queries each update answered from cache versus re-verified.
	Updates         int64 `json:"updates"`
	DeltaReused     int64 `json:"delta_reused"`
	DeltaReverified int64 `json:"delta_reverified"`
}

// CacheHitRate returns the fraction of result-cache lookups that hit, or
// 0 when no lookups were recorded.
func (s ServeStats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// AbsintStats count abstract-interpretation presolve activity
// (internal/absint): how much the simplifier removed before a solver ran,
// and what the static auto-backend predictor picked.
type AbsintStats struct {
	// Presolves counts Simplify runs on query DAGs.
	Presolves int64 `json:"presolves"`
	// NodesBefore and NodesAfter accumulate DAG sizes across presolves;
	// their ratio is the average shrink factor.
	NodesBefore int64 `json:"nodes_before"`
	NodesAfter  int64 `json:"nodes_after"`
	// Folds, ComparesDecided and BranchesPruned count rewrites by kind.
	Folds           int64 `json:"folds"`
	ComparesDecided int64 `json:"compares_decided"`
	BranchesPruned  int64 `json:"branches_pruned"`
	// SlicedInputs counts input variables removed from cones of influence.
	SlicedInputs int64 `json:"sliced_inputs"`
	// AutoPicks breaks backend:auto resolutions down by chosen backend.
	AutoPicks map[string]int64 `json:"auto_picks,omitempty"`
}

// LintStats count static-analyzer activity (internal/lint).
type LintStats struct {
	// Models counts models analyzed.
	Models int64 `json:"models"`
	// Findings counts diagnostics reported (after suppression).
	Findings int64 `json:"findings"`
	// Suppressed counts diagnostics filtered by allow-lists.
	Suppressed int64 `json:"suppressed"`
}

// PhaseTiming is the accumulated wall time of one named analysis phase
// ("build", "symeval", "solve", "decode", ...).
type PhaseTiming struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Snapshot is a plain, copyable record of telemetry. The zero value is
// empty; snapshots merge additively (except DAG, which keeps the maximum).
type Snapshot struct {
	// Analyses counts completed analyses (Find, Verify, Solve, ...).
	Analyses int64 `json:"analyses"`
	// AnalysesBy breaks Analyses down by backend name ("bdd", "sat",
	// "interp", "compile", "stateset").
	AnalysesBy map[string]int64 `json:"analyses_by,omitempty"`
	// Solves counts solver invocations; Sat counts those that returned a
	// model (FindAll and NextModel solve repeatedly within one analysis).
	Solves int64 `json:"solves"`
	Sat    int64 `json:"sat"`

	Phases    []PhaseTiming  `json:"phases,omitempty"`
	DAG       DAGStats       `json:"dag"`
	BDD       BDDStats       `json:"bdd"`
	SAT       SATStats       `json:"sat_solver"`
	Compile   CompileStats   `json:"compile"`
	Bitslice  BitsliceStats  `json:"bitslice"`
	StateSet  StateSetStats  `json:"stateset"`
	Fuzz      FuzzStats      `json:"fuzz"`
	Lint      LintStats      `json:"lint"`
	Serve     ServeStats     `json:"serve"`
	Portfolio PortfolioStats `json:"portfolio"`
	Absint    AbsintStats    `json:"absint"`
}

// Phase returns the accumulated timing of the named phase.
func (s *Snapshot) Phase(name string) (PhaseTiming, bool) {
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseTiming{}, false
}

func (s *Snapshot) addPhase(name string, d time.Duration, n int64) {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			s.Phases[i].Count += n
			s.Phases[i].Total += d
			return
		}
	}
	s.Phases = append(s.Phases, PhaseTiming{Name: name, Count: n, Total: d})
}

// merge adds o into s: every additive row of SnapshotMetrics sums, DAG
// keeps the larger record and phases accumulate by name.
func (s *Snapshot) merge(o *Snapshot) {
	for _, off := range counterOffs {
		*fieldAt[int64](s, off) += *fieldAt[int64](o, off)
	}
	for _, off := range mapOffs {
		src := *fieldAt[map[string]int64](o, off)
		if len(src) == 0 {
			continue
		}
		dst := fieldAt[map[string]int64](s, off)
		if *dst == nil {
			*dst = make(map[string]int64, len(src))
		}
		for k, v := range src {
			(*dst)[k] += v
		}
	}
	for _, p := range o.Phases {
		s.addPhase(p.Name, p.Total, p.Count)
	}
	if o.DAG.Nodes > s.DAG.Nodes {
		s.DAG = o.DAG
	}
}

func (s *Snapshot) clone() Snapshot {
	c := *s
	for _, off := range mapOffs {
		if m := *fieldAt[map[string]int64](s, off); m != nil {
			*fieldAt[map[string]int64](&c, off) = maps.Clone(m)
		}
	}
	c.Phases = append([]PhaseTiming(nil), s.Phases...)
	return c
}

// String renders the snapshot as a compact human-readable report. Sections
// with no activity are omitted.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "zen stats: %d analyses", s.Analyses)
	if len(s.AnalysesBy) > 0 {
		names := make([]string, 0, len(s.AnalysesBy))
		for k := range s.AnalysesBy {
			names = append(names, k)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, k := range names {
			parts[i] = fmt.Sprintf("%s %d", k, s.AnalysesBy[k])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, ", %d solves (%d sat)\n", s.Solves, s.Sat)
	if len(s.Phases) > 0 {
		parts := make([]string, len(s.Phases))
		for i, p := range s.Phases {
			parts[i] = fmt.Sprintf("%s %v×%d", p.Name, p.Total.Round(time.Microsecond), p.Count)
		}
		fmt.Fprintf(&b, "  phases:   %s\n", strings.Join(parts, " · "))
	}
	if s.DAG.Nodes > 0 {
		fmt.Fprintf(&b, "  dag:      %d nodes, depth %d, %d vars (largest analyzed)\n",
			s.DAG.Nodes, s.DAG.Depth, s.DAG.Vars)
	}
	if s.BDD.Nodes > 0 || s.BDD.CacheHits+s.BDD.CacheMisses > 0 {
		fmt.Fprintf(&b, "  bdd:      %d nodes, cache %.1f%% hit (%d hits / %d misses), unique-table %.1f%% hit\n",
			s.BDD.Nodes, 100*s.BDD.CacheHitRate(), s.BDD.CacheHits, s.BDD.CacheMisses,
			100*s.BDD.UniqueHitRate())
	}
	if s.SAT.Vars > 0 {
		fmt.Fprintf(&b, "  sat:      %d vars, %d clauses (+%d learned), %d decisions, %d propagations, %d conflicts, %d restarts\n",
			s.SAT.Vars, s.SAT.Clauses, s.SAT.Learned, s.SAT.Decisions,
			s.SAT.Propagations, s.SAT.Conflicts, s.SAT.Restarts)
	}
	if s.Portfolio.Races > 0 {
		fmt.Fprintf(&b, "  portfolio: %d races", s.Portfolio.Races)
		if len(s.Portfolio.WinsBy) > 0 {
			names := make([]string, 0, len(s.Portfolio.WinsBy))
			for k := range s.Portfolio.WinsBy {
				names = append(names, k)
			}
			sort.Strings(names)
			parts := make([]string, len(names))
			for i, k := range names {
				parts[i] = fmt.Sprintf("%s %d", k, s.Portfolio.WinsBy[k])
			}
			fmt.Fprintf(&b, " (wins: %s)", strings.Join(parts, ", "))
		}
		fmt.Fprintf(&b, ", %d losers aborted in %v total\n",
			s.Portfolio.LoserAborts, time.Duration(s.Portfolio.LoserAbortNs).Round(time.Microsecond))
	}
	if s.Absint.Presolves > 0 || len(s.Absint.AutoPicks) > 0 {
		fmt.Fprintf(&b, "  presolve: %d runs, %d→%d nodes, %d folds (%d compares), %d branches pruned, %d inputs sliced",
			s.Absint.Presolves, s.Absint.NodesBefore, s.Absint.NodesAfter,
			s.Absint.Folds, s.Absint.ComparesDecided, s.Absint.BranchesPruned,
			s.Absint.SlicedInputs)
		if len(s.Absint.AutoPicks) > 0 {
			names := make([]string, 0, len(s.Absint.AutoPicks))
			for k := range s.Absint.AutoPicks {
				names = append(names, k)
			}
			sort.Strings(names)
			parts := make([]string, len(names))
			for i, k := range names {
				parts[i] = fmt.Sprintf("%s %d", k, s.Absint.AutoPicks[k])
			}
			fmt.Fprintf(&b, " (auto picks: %s)", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	if s.Compile.Compiles > 0 {
		fmt.Fprintf(&b, "  compile:  %d programs, %d instructions, %d registers\n",
			s.Compile.Compiles, s.Compile.Instructions, s.Compile.Registers)
	}
	if s.Bitslice.Batches > 0 || s.Bitslice.Plans > 0 {
		fmt.Fprintf(&b, "  bitslice: %d plans (%d ops, %d regs), %d batches, %d packets, %d fallbacks\n",
			s.Bitslice.Plans, s.Bitslice.PlanOps, s.Bitslice.PlanRegs,
			s.Bitslice.Batches, s.Bitslice.Packets, s.Bitslice.Fallbacks)
	}
	if s.StateSet.Transformers > 0 || s.StateSet.Forwards > 0 || s.StateSet.Reverses > 0 {
		fmt.Fprintf(&b, "  stateset: %d transformers (%d fresh-space), %d forward, %d reverse\n",
			s.StateSet.Transformers, s.StateSet.FreshSpaces,
			s.StateSet.Forwards, s.StateSet.Reverses)
	}
	if s.Fuzz.Execs > 0 {
		fmt.Fprintf(&b, "  fuzz:     %d execs, %d divergences, %d shrink steps\n",
			s.Fuzz.Execs, s.Fuzz.Divergences, s.Fuzz.Shrinks)
	}
	if s.Lint.Models > 0 {
		fmt.Fprintf(&b, "  lint:     %d models, %d findings, %d suppressed\n",
			s.Lint.Models, s.Lint.Findings, s.Lint.Suppressed)
	}
	if s.Serve.Queries > 0 || s.Serve.Shed > 0 {
		fmt.Fprintf(&b, "  serve:    %d queries, cache %.1f%% hit (%d hits / %d misses), %d coalesced, %d shed, %d cancelled, %d errors\n",
			s.Serve.Queries, 100*s.Serve.CacheHitRate(), s.Serve.CacheHits,
			s.Serve.CacheMisses, s.Serve.Coalesced, s.Serve.Shed,
			s.Serve.Cancelled, s.Serve.Errors)
	}
	return b.String()
}

// Stats is a thread-safe accumulator of analysis telemetry. The zero value
// is ready to use; attach one to an analysis with zen.WithStats and read
// it back with Snapshot after the call returns. One Stats may be shared by
// many analyses (and many goroutines); snapshots merge into it.
type Stats struct {
	mu sync.Mutex
	s  Snapshot
}

// Snapshot returns a copy of everything recorded so far. Safe to call
// concurrently with ongoing analyses; nil-safe (returns a zero Snapshot).
func (st *Stats) Snapshot() Snapshot {
	if st == nil {
		return Snapshot{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.clone()
}

// Phase returns the accumulated timing of the named phase.
func (st *Stats) Phase(name string) (PhaseTiming, bool) {
	if st == nil {
		return PhaseTiming{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s.Phase(name)
}

// String renders a human-readable report of the recorded telemetry.
func (st *Stats) String() string {
	s := st.Snapshot()
	return s.String()
}

// Reset clears all recorded telemetry.
func (st *Stats) Reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s = Snapshot{}
}

// Merge adds a snapshot into the accumulator.
func (st *Stats) Merge(s *Snapshot) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s.merge(s)
}

// global is the process-wide aggregate every analysis merges into; it backs
// the expvar/zenstats exposition.
var global Stats

// Global returns the process-wide telemetry aggregate.
func Global() *Stats { return &global }
