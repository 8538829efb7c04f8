package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// newTestLoader builds a loader rooted at this module.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(root, module)
}

// fixturePath is the import path of a fixture package under testdata/src.
func fixturePath(l *Loader, name string) string {
	return l.Module + "/internal/lint/testdata/src/" + name
}

// loadProgram loads the named fixture packages into a Program, failing the
// test on load or type-check errors (fixtures must be well-typed so the
// rules see full type information).
func loadProgram(t *testing.T, l *Loader, names ...string) *Program {
	t.Helper()
	prog := &Program{Fset: l.Fset}
	for _, name := range names {
		pkg, err := l.Load(fixturePath(l, name))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		if pkg.TypeError != nil {
			t.Fatalf("fixture %s does not type-check: %v", name, pkg.TypeError)
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog
}

// render formats diagnostics with module-root-relative paths so goldens are
// machine-independent.
func render(t *testing.T, l *Loader, diags []Diagnostic) string {
	t.Helper()
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(l.Root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.ToSlash(rel), d.Line, d.Column, d.Rule, d.Message)
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestRBConstructGolden(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "rbconstructbad", "rbconstructok")
	diags := Apply(prog, []*Analyzer{RBConstruct})
	if len(diags) == 0 {
		t.Fatal("seeded rbconstruct violations produced no diagnostics")
	}
	got := render(t, l, diags)
	if strings.Contains(got, "rbconstructok") {
		t.Errorf("negative fixture was flagged:\n%s", got)
	}
	checkGolden(t, "rbconstruct.golden", got)
}

func TestDeterminismGolden(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "determinismbad", "determinismok", "determinismscope")
	diags := Apply(prog, []*Analyzer{Determinism})
	if len(diags) == 0 {
		t.Fatal("seeded determinism violations produced no diagnostics")
	}
	got := render(t, l, diags)
	if strings.Contains(got, "determinismok") || strings.Contains(got, "determinismscope") {
		t.Errorf("negative fixture was flagged:\n%s", got)
	}
	checkGolden(t, "determinism.golden", got)
}

// TestUnknownAllowReported: an allow directive naming a rule rblint does
// not have is exactly one finding, which names the rule; directives naming
// known rules or "all" are silent.
func TestUnknownAllowReported(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "allowfix")
	diags := Apply(prog, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("%d findings, want 1:\n%s", len(diags), render(t, l, diags))
	}
	if d := diags[0]; d.Rule != allowRule || d.Line != 5 || !strings.Contains(d.Message, `"goleak"`) {
		t.Errorf("finding %s, want rule %q on line 5 naming \"goleak\"", d, allowRule)
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	l := newTestLoader(t)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	sawLint := false
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand swept fixture package %s into the analysis set", p)
		}
		if p == l.Module+"/internal/lint" {
			sawLint = true
		}
	}
	if !sawLint {
		t.Errorf("Expand(./...) missed internal/lint; got %d paths", len(paths))
	}
}

// TestAllowDirectiveForms pins the two directive placements: trailing (same
// line) and standalone (next line), exercised by the ok fixtures above, and
// verifies an unrelated rule name does not suppress.
func TestAllowDirectiveForms(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "rbconstructok")
	pkg := prog.Pkgs[0]
	if pkg.allow == nil {
		t.Fatal("fixture allow directives were not collected")
	}
	var lines []int
	for _, byLine := range pkg.allow {
		for line, rules := range byLine {
			if rules["rbconstruct"] {
				lines = append(lines, line)
			}
		}
	}
	if len(lines) != 2 {
		t.Errorf("want 2 allowlisted lines (trailing + standalone), got %v", lines)
	}
}
