package zenrepro

// Registry lint golden: every registered model's lint report — kept and
// allow-list-suppressed findings plus stale allow entries — rendered into
// testdata/registry_lint.golden. The registry imports live in
// parity_test.go. A change to any analyzer that moves a finding on a real
// model shows up here as a reviewable diff; regenerate with
//
//	go test -run TestRegistryLintGolden -update-lint .

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"zen-go/zen"
)

var updateLint = flag.Bool("update-lint", false, "rewrite testdata/registry_lint.golden")

// lintRenderEnv names the file a child test process renders the report
// into.
const lintRenderEnv = "ZEN_REGISTRY_LINT_OUT"

// TestRegistryLintGolden renders the report in a child process. zen's
// builder is process-wide, so the variable ids printed in exprs depend on
// what the process built before, and other tests here build the same
// models; a fresh process numbers them the same way every run.
func TestRegistryLintGolden(t *testing.T) {
	if path := os.Getenv(lintRenderEnv); path != "" {
		if err := os.WriteFile(path, []byte(renderRegistryLint()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "lint.txt")
	cmd := exec.Command(os.Args[0], "-test.run=^TestRegistryLintGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), lintRenderEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("render child: %v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "registry_lint.golden")
	if *updateLint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-lint to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("registry lint drifted from %s; rerun with -update-lint and review the diff", golden)
	}
}

// renderRegistryLint lints every registered model. The demo/ models are
// registered by internal/serve (linked into this binary by the service
// benchmarks), not by the model registry zenlint scans, so they are left
// out.
func renderRegistryLint() string {
	var out strings.Builder
	for _, r := range zen.LintRegistered() {
		if strings.HasPrefix(r.Name, "demo/") {
			continue
		}
		fmt.Fprintf(&out, "=== %s\n", r.Name)
		for _, d := range r.Findings {
			fmt.Fprintf(&out, "kept %s %s: %s\n    at %s\n", d.Severity, d.Code, d.Msg, d.Expr)
		}
		for _, d := range r.Suppressed {
			fmt.Fprintf(&out, "allowed %s %s: %s\n    at %s\n", d.Severity, d.Code, d.Msg, d.Expr)
		}
		for _, c := range r.StaleAllows {
			fmt.Fprintf(&out, "stale allow %s\n", c)
		}
	}
	return out.String()
}
