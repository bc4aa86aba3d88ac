package fuzz

import (
	"context"
	"fmt"
	"math/rand"

	"zen-go/internal/core"
	"zen-go/internal/obs"
)

// Campaign drives many generate→check iterations with telemetry. Each
// iteration derives its own seed from (Seed, index), so any failure is
// reproducible in isolation by RunOne.
type Campaign struct {
	// Seed is the campaign master seed.
	Seed int64
	// N is the number of iterations.
	N int
	// Gen and Check bound the generator and the oracle.
	Gen   Config
	Check CheckConfig
	// Shrink enables minimization of found divergences (each shrink step
	// re-runs the oracle; see MaxShrinkTries).
	Shrink         bool
	MaxShrinkTries int
	StopOnFirst    bool
	// Stats and Tracer receive telemetry in the shared obs vocabulary:
	// execs, divergences and shrink steps as fuzz counters, campaign wall
	// time under the "campaign" phase.
	Stats  *obs.Stats
	Tracer obs.Tracer
	// Progress, when non-nil, is called every ProgressEvery iterations.
	Progress      func(done, divergences int)
	ProgressEvery int
}

// Finding is one divergence found by a campaign.
type Finding struct {
	Iter int
	Seed int64 // per-iteration seed: RunOne(Seed, Gen, Check) reproduces it
	Div  *Divergence
	// Shrunk and In are the minimized query (equal to Div.Expr when
	// shrinking is disabled); Repro is the printed regression test.
	Shrunk *core.Node
	In     *core.Node
	Repro  string
}

// splitmix64 derives independent per-iteration seeds from the master seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IterSeed returns the deterministic seed of iteration i under master seed.
func IterSeed(master int64, i int) int64 {
	return int64(splitmix64(uint64(master) + uint64(i)))
}

// deterministicRNG returns the rng used for an iteration's concrete trials.
func deterministicRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5eed))
}

// RunOne generates and checks the single iteration identified by seed.
// It returns the generated query and the divergence (nil when all backends
// agree).
func RunOne(seed int64, gcfg Config, ccfg CheckConfig) (expr, in *core.Node, g *Gen, div *Divergence) {
	g = NewGen(seed, gcfg)
	expr, in = g.Predicate()
	return expr, in, g, Check(expr, in, ccfg, deterministicRNG(seed))
}

// Run executes the campaign and returns all findings (shrunk when enabled).
func (c *Campaign) Run() []Finding {
	findings, _ := c.RunContext(context.Background())
	return findings
}

// RunContext is Run bounded by a context: the deadline is checked between
// iterations, and an expired context stops the campaign early, returning
// the findings accumulated so far together with the context's error.
// Individual query checks are not interrupted mid-solve — fuzz queries are
// small by construction — so the response latency is one iteration.
func (c *Campaign) RunContext(ctx context.Context) ([]Finding, error) {
	if c.MaxShrinkTries == 0 {
		c.MaxShrinkTries = 400
	}
	rec := obs.Begin(c.Stats, c.Tracer, "fuzz", "campaign")
	stop := rec.Phase("campaign")
	var findings []Finding
	var counters obs.FuzzStats
	var runErr error
	for i := 0; i < c.N; i++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		seed := IterSeed(c.Seed, i)
		expr, in, g, div := RunOne(seed, c.Gen, c.Check)
		counters.Execs++
		if div != nil {
			counters.Divergences++
			f := Finding{Iter: i, Seed: seed, Div: div, Shrunk: div.Expr, In: in}
			if c.Shrink {
				f.Shrunk = c.shrinkFinding(g, expr, in, div, &counters)
			}
			f.Repro = ReproSource(fmt.Sprintf("FuzzRegress%d", i), f.Shrunk, in, c.Check.ListBound)
			findings = append(findings, f)
			if c.StopOnFirst {
				break
			}
		}
		if c.Progress != nil && c.ProgressEvery > 0 && (i+1)%c.ProgressEvery == 0 {
			c.Progress(i+1, len(findings))
		}
	}
	stop()
	rec.Add(obs.Snapshot{Fuzz: counters})
	rec.End()
	return findings, runErr
}

// shrinkFinding minimizes a divergence, requiring candidates to fail with
// the same kind so the repro stays faithful to the original disagreement.
func (c *Campaign) shrinkFinding(g *Gen, expr, in *core.Node, div *Divergence, counters *obs.FuzzStats) *core.Node {
	kind := div.Kind
	return Shrink(g.B, expr, func(cand *core.Node) bool {
		counters.Shrinks++
		d := Check(cand, in, c.Check, deterministicRNG(0))
		return d != nil && d.Kind == kind
	}, c.MaxShrinkTries)
}
