package fuzz_test

// Native go-fuzz entry points. Each target maps a fuzzed int64 seed to one
// deterministic generate→check iteration, so the engine explores the
// generator's space through seed mutation while every failure stays
// reproducible from its seed alone. Seed corpus: testdata/corpus/seeds.txt.
//
// Run long campaigns with:
//
//	go test ./internal/fuzz -fuzz FuzzDifferential -fuzztime 5m

import (
	"bufio"
	"os"
	"strconv"
	"testing"

	"zen-go/internal/fuzz"
)

// corpusSeeds reads the shared seed corpus (one int64 per line, # comments).
func corpusSeeds(f *testing.F) []int64 {
	file, err := os.Open("testdata/corpus/seeds.txt")
	if err != nil {
		f.Fatalf("seed corpus: %v", err)
	}
	defer file.Close()
	var seeds []int64
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		n, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			f.Fatalf("seed corpus: bad line %q: %v", line, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

func runSeed(t *testing.T, seed int64, gcfg fuzz.Config, ccfg fuzz.CheckConfig) {
	_, in, _, div := fuzz.RunOne(seed, gcfg, ccfg)
	if div != nil {
		t.Fatalf("seed %d: %v\n%s", seed, div,
			fuzz.ReproSource("FuzzFound", div.Expr, in, ccfg.ListBound))
	}
}

// FuzzDifferential drives the full oracle (interp, bitslice, BDD, SAT,
// portfolio, presolve, state sets) over the default generator configuration.
func FuzzDifferential(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runSeed(t, seed, fuzz.DefaultConfig(), fuzz.DefaultCheckConfig())
	})
}

// FuzzListHeavy stresses the guarded-union list encodings: list generation
// forced on, longer lists, higher symbolic bound.
func FuzzListHeavy(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	gcfg := fuzz.DefaultConfig()
	gcfg.Lists = true
	gcfg.ListLen = 3
	gcfg.MaxWidth = 8
	ccfg := fuzz.DefaultCheckConfig()
	ccfg.ListBound = 3
	f.Fuzz(func(t *testing.T, seed int64) {
		runSeed(t, seed, gcfg, ccfg)
	})
}

// FuzzWide stresses wide bit-vector arithmetic (casts, shifts at the width
// edge, signed comparisons) with lists disabled.
func FuzzWide(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	gcfg := fuzz.DefaultConfig()
	gcfg.Lists = false
	gcfg.MaxWidth = 64
	f.Fuzz(func(t *testing.T, seed int64) {
		runSeed(t, seed, gcfg, fuzz.DefaultCheckConfig())
	})
}
