// Command zenfuzz runs the cross-backend differential fuzzing campaign from
// the command line: it generates random typed queries, pushes each through
// every execution path (interpreter, bitsliced batch evaluation, BDD and
// SAT solving, the solver portfolio, presolve, state-set transformers) and reports any disagreement as a shrunk,
// ready-to-paste regression test.
//
// Usage:
//
//	zenfuzz -n 5000 -seed 1 -stats
//
// Exit status is 1 when any divergence was found, 0 otherwise; 3 when
// -timeout expired before the campaign finished (partial findings are
// still reported).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"zen-go/internal/fuzz"
	"zen-go/internal/obs"
)

// exitDeadline is the exit code when -timeout cuts the campaign short.
const exitDeadline = 3

func main() {
	var (
		seed     = flag.Int64("seed", 1, "campaign master seed")
		n        = flag.Int("n", 2000, "number of queries to generate and check")
		depth    = flag.Int("depth", 0, "max expression depth (0 = default)")
		width    = flag.Int("width", 0, "max common bit-vector width (0 = default)")
		lists    = flag.Bool("lists", true, "generate list-typed inputs and expressions")
		bound    = flag.Int("bound", 0, "symbolic list bound (0 = default)")
		models   = flag.Int("models", 0, "max models enumerated per backend (0 = default)")
		trials   = flag.Int("trials", 0, "random concrete inputs per query (0 = default)")
		shrink   = flag.Bool("shrink", true, "minimize divergences before reporting")
		stop     = flag.Bool("stop", false, "stop at the first divergence")
		stats    = flag.Bool("stats", false, "print telemetry after the campaign")
		progress = flag.Int("progress", 500, "print throughput every N queries (0 = off)")
		timeout  = flag.Duration("timeout", 0, "stop the campaign after this long (exit code 3)")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancelFn context.CancelFunc
		ctx, cancelFn = context.WithTimeout(ctx, *timeout)
		defer cancelFn()
	}

	gcfg := fuzz.DefaultConfig()
	if *depth > 0 {
		gcfg.MaxDepth = *depth
	}
	if *width > 0 {
		gcfg.MaxWidth = *width
	}
	gcfg.Lists = *lists
	ccfg := fuzz.DefaultCheckConfig()
	if *bound > 0 {
		ccfg.ListBound = *bound
	}
	if *models > 0 {
		ccfg.MaxModels = *models
	}
	if *trials > 0 {
		ccfg.ConcreteTrials = *trials
	}

	st := &obs.Stats{}
	start := time.Now()
	c := &fuzz.Campaign{
		Seed:        *seed,
		N:           *n,
		Gen:         gcfg,
		Check:       ccfg,
		Shrink:      *shrink,
		StopOnFirst: *stop,
		Stats:       st,
	}
	if *progress > 0 {
		c.ProgressEvery = *progress
		c.Progress = func(done, divergences int) {
			rate := float64(done) / time.Since(start).Seconds()
			fmt.Fprintf(os.Stderr, "zenfuzz: %d/%d queries, %.0f execs/sec, %d divergences\n",
				done, *n, rate, divergences)
		}
	}

	findings, runErr := c.RunContext(ctx)
	elapsed := time.Since(start)

	for _, f := range findings {
		fmt.Printf("--- divergence at iteration %d (seed %d): %s\n", f.Iter, f.Seed, f.Div.Kind)
		fmt.Printf("    %s\n", f.Div.Detail)
		fmt.Printf("    reproduce: zenfuzz -seed-one %d\n\n%s\n", f.Seed, f.Repro)
	}

	snap := st.Snapshot()
	rate := float64(snap.Fuzz.Execs) / elapsed.Seconds()
	fmt.Printf("zenfuzz: %d queries in %v (%.0f execs/sec), %d divergences, %d shrink steps\n",
		snap.Fuzz.Execs, elapsed.Round(time.Millisecond), rate,
		snap.Fuzz.Divergences, snap.Fuzz.Shrinks)
	if *stats {
		fmt.Print(st.String())
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "zenfuzz: campaign stopped early: %v\n", runErr)
		os.Exit(exitDeadline)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
