// Command zencodegen compiles a registered Zen model into a standalone,
// dependency-free Go package: a scalar Evaluate function plus a
// bitsliced EvaluateBatch function (64 inputs per machine-word step),
// both generated from the model's hash-consed IR (see zen.Codegen).
//
// Usage:
//
//	zencodegen -model <name> [-pkg name] [-o file] [-dir module-dir]
//	zencodegen -list
//
// -o writes the generated file (default stdout). -dir instead lays out a
// buildable module: <dir>/go.mod plus <dir>/<pkg>/<pkg>.go, ready for
// `go build ./...` — the shape the CI codegen smoke step compiles.
// Models that use lists are rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"zen-go/zen"

	// Every package that registers models with zen.RegisterModel.
	_ "zen-go/analyses/anteater"
	_ "zen-go/analyses/ap"
	_ "zen-go/analyses/bonsai"
	_ "zen-go/analyses/cp2dp"
	_ "zen-go/analyses/diff"
	_ "zen-go/analyses/hsa"
	_ "zen-go/analyses/minesweeper"
	_ "zen-go/analyses/reach"
	_ "zen-go/analyses/shapeshifter"
	_ "zen-go/analyses/veriflow"
	_ "zen-go/nets/acl"
	_ "zen-go/nets/bgp"
	_ "zen-go/nets/device"
	_ "zen-go/nets/ecmp"
	_ "zen-go/nets/firewall"
	_ "zen-go/nets/fwd"
	_ "zen-go/nets/gre"
	_ "zen-go/nets/igp"
	_ "zen-go/nets/mpls"
	_ "zen-go/nets/nat"
	_ "zen-go/nets/pipeline"
	_ "zen-go/nets/pkt"
	_ "zen-go/nets/routemap"
	_ "zen-go/nets/vnet"
	_ "zen-go/nets/vxlan"
)

func main() {
	model := flag.String("model", "", "registered model name (see -list)")
	pkg := flag.String("pkg", "model", "generated package name")
	out := flag.String("o", "", "output file (default stdout)")
	dir := flag.String("dir", "", "lay out a buildable module at this directory instead of one file")
	list := flag.Bool("list", false, "list models the generator can compile and exit")
	flag.Parse()

	if *list {
		for _, m := range zen.RegisteredModels() {
			q, ok := m.Build().(zen.Queryable)
			if !ok {
				continue
			}
			if _, err := zen.Codegen(q, *pkg); err == nil {
				fmt.Println(m.Name)
			}
		}
		return
	}
	if *model == "" {
		fmt.Fprintln(os.Stderr, "zencodegen: -model is required (use -list for candidates)")
		os.Exit(2)
	}
	var target zen.Queryable
	for _, m := range zen.RegisteredModels() {
		if m.Name != *model {
			continue
		}
		q, ok := m.Build().(zen.Queryable)
		if !ok {
			fmt.Fprintf(os.Stderr, "zencodegen: model %s is not queryable\n", *model)
			os.Exit(1)
		}
		target = q
	}
	if target == nil {
		fmt.Fprintf(os.Stderr, "zencodegen: unknown model %s (use -list)\n", *model)
		os.Exit(1)
	}
	g, err := zen.Codegen(target, *pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zencodegen:", err)
		os.Exit(1)
	}

	switch {
	case *dir != "":
		pkgDir := filepath.Join(*dir, g.Package)
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			fatal(err)
		}
		gomod := "module zencodegen-out\n\ngo 1.22\n"
		if err := os.WriteFile(filepath.Join(*dir, "go.mod"), []byte(gomod), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, g.Package+".go"), []byte(g.Source), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", filepath.Join(pkgDir, g.Package+".go"))
	case *out != "":
		if err := os.WriteFile(*out, []byte(g.Source), 0o644); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(g.Source)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zencodegen:", err)
	os.Exit(1)
}
