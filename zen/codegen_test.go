package zen_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"zen-go/internal/fuzz"
	"zen-go/zen"

	_ "zen-go/nets/acl"
	_ "zen-go/nets/device"
	_ "zen-go/nets/ecmp"
	_ "zen-go/nets/nat"
	_ "zen-go/nets/pipeline"
	_ "zen-go/nets/pkt"
)

// goldenModel is deliberately tiny so the golden file stays reviewable:
// one compare, one add, one select over a single byte.
func goldenModel(x zen.Value[uint8]) zen.Value[uint8] {
	return zen.If(zen.LtC(x, uint8(10)), zen.AddC(x, 1), x)
}

// TestCodegenGolden pins the exact emitted source for a small model.
// Regenerate with UPDATE_CODEGEN_GOLDEN=1 after deliberate emitter
// changes.
func TestCodegenGolden(t *testing.T) {
	g, err := zen.Codegen(zen.Func(goldenModel), "model")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "codegen_golden.txt")
	if os.Getenv("UPDATE_CODEGEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(g.Source), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if g.Source != string(want) {
		t.Errorf("generated source differs from %s (set UPDATE_CODEGEN_GOLDEN=1 to regenerate)\n--- got ---\n%s", golden, g.Source)
	}
}

func TestCodegenRejectsLists(t *testing.T) {
	fn := zen.Func(func(xs zen.Value[[]uint8]) zen.Value[bool] {
		return zen.AnyMatch(xs, 3, func(x zen.Value[uint8]) zen.Value[bool] {
			return zen.EqC(x, uint8(7))
		})
	})
	if _, err := zen.Codegen(fn, "model"); err == nil {
		t.Fatal("list model was not rejected")
	}
}

// writeModule lays a generated model out as a buildable Go module with a
// main package that batch-evaluates embedded inputs, cross-checks them
// against the generated scalar form, and prints each result.
func writeModule(t *testing.T, dir string, g *zen.GeneratedModel, inputs [][]string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module zencodegen-out\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, g.Package)
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, g.Package+".go"), []byte(g.Source), 0o644); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "package main\n\nimport (\n\t\"fmt\"\n\n\t\"zencodegen-out/%s\"\n)\n\n", g.Package)
	fmt.Fprintf(&b, "func main() {\n")
	argNames := make([]string, len(inputs))
	for i, lits := range inputs {
		argNames[i] = fmt.Sprintf("in%d", i)
		fmt.Fprintf(&b, "\t%s := []%s{\n", argNames[i], goSliceElem(g, i))
		for _, lit := range lits {
			fmt.Fprintf(&b, "\t\t%s,\n", lit)
		}
		fmt.Fprintf(&b, "\t}\n")
	}
	fmt.Fprintf(&b, "\tgot := %s.EvaluateBatch(%s)\n", g.Package, strings.Join(argNames, ", "))
	scalarArgs := make([]string, len(inputs))
	for i := range inputs {
		scalarArgs[i] = fmt.Sprintf("%s[i]", argNames[i])
	}
	fmt.Fprintf(&b, "\tfor i := range got {\n")
	fmt.Fprintf(&b, "\t\tif s := %s.Evaluate(%s); s != got[i] {\n", g.Package, strings.Join(scalarArgs, ", "))
	fmt.Fprintf(&b, "\t\t\tfmt.Println(\"DIVERGE scalar/batch at\", i)\n\t\t\treturn\n\t\t}\n")
	fmt.Fprintf(&b, "\t\tfmt.Printf(\"%%v\\n\", got[i])\n\t}\n}\n")
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goSliceElem names the element type of argument i as main.go sees it.
func goSliceElem(g *zen.GeneratedModel, i int) string {
	t := g.ArgTypes()[i]
	lit, err := g.ValueLiteral(g.Package+".", fuzz.RandValue(rand.New(rand.NewSource(1)), t, 0))
	if err != nil {
		panic(err)
	}
	// For struct literals the type name is the prefix before "{"; for
	// scalars it is the conversion before "(".
	if j := strings.IndexAny(lit, "{("); j > 0 {
		return lit[:j]
	}
	return "bool"
}

func runGo(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out.String())
	}
	return out.String()
}

// TestCodegenZooModels generates standalone packages for several zoo
// models, verifies they build on their own (no imports), and runs them
// against the interpreter on fuzzed inputs: generated batch output must
// match generated scalar output (checked inside the harness) and the
// interpreter (checked here, line by line).
func TestCodegenZooModels(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs generated modules")
	}
	// nets/device.forward-path compiles to a plan with no instructions:
	// its batch loop only transposes.
	names := []string{"nets/acl.allow", "nets/nat.apply", "nets/ecmp.hash", "nets/pkt.prefix-contains",
		"nets/device.forward-path", "nets/pipeline.egress"}
	registered := make(map[string]zen.RegisteredModel)
	for _, m := range zen.RegisteredModels() {
		registered[m.Name] = m
	}
	for _, name := range names {
		name := name
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			m, ok := registered[name]
			if !ok {
				t.Fatalf("model %s is not registered", name)
			}
			q, ok := m.Build().(zen.Queryable)
			if !ok {
				t.Fatalf("model %s is not queryable", name)
			}
			g, err := zen.Codegen(q, "model")
			if err != nil {
				t.Fatal(err)
			}

			const N = 200
			rng := rand.New(rand.NewSource(42))
			args := q.QueryArgs()
			lits := make([][]string, len(args))
			envs := make([]zen.RawModel, N)
			for k := 0; k < N; k++ {
				envs[k] = zen.RawModel{}
			}
			for i, a := range args {
				lits[i] = make([]string, N)
				for k := 0; k < N; k++ {
					v := fuzz.RandValue(rng, a.Type, 0)
					envs[k][a.VarID] = v
					lit, lerr := g.ValueLiteral("model.", v)
					if lerr != nil {
						t.Fatal(lerr)
					}
					lits[i][k] = lit
				}
			}

			dir := t.TempDir()
			writeModule(t, dir, g, lits)
			runGo(t, dir, "vet", "./...")
			out := runGo(t, dir, "run", ".")
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
			if len(lines) != N {
				t.Fatalf("harness printed %d lines, want %d:\n%s", len(lines), N, out)
			}
			for k := 0; k < N; k++ {
				want, werr := zen.EvaluateRaw(context.Background(), q.QueryOut(), envs[k])
				if werr != nil {
					t.Fatal(werr)
				}
				if lines[k] != g.FormatValue(want) {
					t.Fatalf("input %d: generated code printed %q, interpreter says %q", k, lines[k], g.FormatValue(want))
				}
			}
		})
	}
}
