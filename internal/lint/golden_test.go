package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"zen-go/internal/core"
	"zen-go/internal/cost"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDiagnosticsGolden renders the full analyzer suite's findings over a
// zoo of known-bad models and compares against testdata/diags.golden. The
// golden file documents the exact user-facing text of every diagnostic.
func TestDiagnosticsGolden(t *testing.T) {
	type zooCase struct {
		name  string
		build func(b *core.Builder) (root, arg *core.Node)
	}
	u8 := core.BV(8, false)
	u32 := core.BV(32, false)
	cases := []zooCase{
		{"repeated condition guards both ifs", func(b *core.Builder) (*core.Node, *core.Node) {
			c := b.Var(core.Bool(), "c")
			x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
			return b.If(c, b.If(c, x, y), z), nil
		}},
		{"disjunction decided by path assumption", func(b *core.Builder) (*core.Node, *core.Node) {
			c, d := b.Var(core.Bool(), "c"), b.Var(core.Bool(), "d")
			x, y, z := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z")
			return b.If(c, b.If(b.Or(c, d), x, y), z), nil
		}},
		{"list elimination built twice", func(b *core.Builder) (*core.Node, *core.Node) {
			l := b.Var(core.List(u8), "l")
			mk := func() *core.Node {
				return b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
					return b.Add(h, b.BVConst(u8, 1))
				})
			}
			return b.Add(mk(), mk()), nil
		}},
		{"acl that never reads the protocol field", func(b *core.Builder) (*core.Node, *core.Node) {
			hdr := core.Object("Pkt",
				core.Field{Name: "Addr", Type: u32},
				core.Field{Name: "Proto", Type: u8})
			arg := b.Var(hdr, "pkt")
			return b.Eq(b.GetField(arg, 0), b.BVConst(u32, 0x0a000001)), arg
		}},
		{"constant model ignores its input", func(b *core.Builder) (*core.Node, *core.Node) {
			arg := b.Var(u8, "pkt")
			return b.BoolConst(true), arg
		}},
		{"wide multiplication and mid-range shift", func(b *core.Builder) (*core.Node, *core.Node) {
			x, y := b.Var(u32, "x"), b.Var(u32, "y")
			mul := b.Mul(x, y)
			return b.Eq(b.Add(b.Shl(mul, 13), y), b.BVConst(u32, 0)), nil
		}},
		{"deeply nested list eliminations", func(b *core.Builder) (*core.Node, *core.Node) {
			l := b.Var(core.List(u8), "l")
			var descend func(l *core.Node, depth int) *core.Node
			descend = func(l *core.Node, depth int) *core.Node {
				if depth == 0 {
					return b.BVConst(u8, 0)
				}
				return b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
					return b.Add(h, descend(tail, depth-1))
				})
			}
			return descend(l, cost.DeepCaseDepth+1), nil
		}},
		{"default-route mask forces the match", func(b *core.Builder) (*core.Node, *core.Node) {
			dst := b.Var(u32, "dst")
			// The /0-mask LPM idiom: BAnd(dst, 0) == 0 always holds and the
			// masked address is forced to zero.
			return b.Eq(b.BAnd(dst, b.BVConst(u32, 0)), b.BVConst(u32, 0)), nil
		}},
		{"advertisement can never beat the seed", func(b *core.Builder) (*core.Node, *core.Node) {
			adv := b.Var(u8, "adv")
			// Lt(0xff, x|1) is statically false: nothing exceeds the
			// saturated seed.
			return b.Lt(b.BVConst(u8, 0xff), b.BOr(adv, b.BVConst(u8, 1))), nil
		}},
		{"guard narrows the nested comparison", func(b *core.Builder) (*core.Node, *core.Node) {
			x, y, z, w := b.Var(u8, "x"), b.Var(u8, "y"), b.Var(u8, "z"), b.Var(u8, "w")
			inner := b.If(b.Lt(x, b.BVConst(u8, 10)), y, z)
			return b.If(b.Lt(x, b.BVConst(u8, 5)), inner, w), nil
		}},
		{"hand-grafted operand with the wrong type", func(b *core.Builder) (*core.Node, *core.Node) {
			x := b.Var(u8, "x")
			bad := b.Add(x, b.BVConst(u8, 1))
			bad.Kids[1] = b.Var(core.Bool(), "p")
			return bad, nil
		}},
		{"escaped list-case binder", func(b *core.Builder) (*core.Node, *core.Node) {
			l := b.Var(core.List(u8), "l")
			var escaped *core.Node
			cs := b.ListCase(l, b.BVConst(u8, 0), func(h, tail *core.Node) *core.Node {
				escaped = h
				return h
			})
			return b.Add(cs, escaped), nil
		}},
	}

	var out strings.Builder
	for _, c := range cases {
		b := core.NewBuilder()
		root, arg := c.build(b)
		diags := Run(root, arg)
		fmt.Fprintf(&out, "=== %s\n", c.name)
		if len(diags) == 0 {
			out.WriteString("(no findings)\n")
		}
		for _, d := range diags {
			out.WriteString(d.String())
			out.WriteByte('\n')
			if d.PerBackend != nil {
				var backends []string
				for be := range d.PerBackend {
					backends = append(backends, be)
				}
				sort.Strings(backends)
				var parts []string
				for _, be := range backends {
					parts = append(parts, fmt.Sprintf("%s=%s", be, d.PerBackend[be]))
				}
				fmt.Fprintf(&out, "    backends: %s\n", strings.Join(parts, " "))
			}
		}
		out.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "diags.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if out.String() != string(want) {
		t.Errorf("diagnostics drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, out.String(), want)
	}
}
