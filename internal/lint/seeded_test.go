package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Seeded-defect tests: each takes a copy of a real package, re-introduces a
// bug class an analyzer exists to catch (a removed unlock), and asserts the
// corresponding rule reports it. These pin the rules to the production code
// shapes, not just the synthetic fixtures.

// copyGoFiles copies a package's non-test Go sources into dst.
func copyGoFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mutate replaces old with new exactly once in the named file; a missing
// old string fails loudly so a refactor of the target code is noticed here.
func mutate(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("mutation anchor not found in %s; update the seeded-defect test:\n%s", path, old)
	}
	out := strings.Replace(string(data), old, new, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadMutated loads a mutated package copy under a fresh import path.
func loadMutated(t *testing.T, l *Loader, realPkg, asPath string, mutateFn func(dir string)) *Program {
	t.Helper()
	dir := t.TempDir()
	copyGoFiles(t, filepath.Join(l.Root, filepath.FromSlash(realPkg)), dir)
	mutateFn(dir)
	pkg, err := l.LoadDirAs(dir, asPath)
	if err != nil {
		t.Fatalf("loading mutated copy: %v", err)
	}
	if pkg.TypeError != nil {
		t.Fatalf("mutated copy does not type-check: %v", pkg.TypeError)
	}
	prog := &Program{Fset: l.Fset}
	prog.Pkgs = append(prog.Pkgs, pkg)
	return prog
}

// requireFinding asserts at least one diagnostic of the rule mentions every
// given substring.
func requireFinding(t *testing.T, diags []Diagnostic, rule string, wants ...string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule != rule {
			continue
		}
		ok := true
		for _, w := range wants {
			if !strings.Contains(d.Message, w) {
				ok = false
			}
		}
		if ok {
			return
		}
	}
	t.Errorf("no %s finding mentioning %q; got %d diagnostics:", rule, wants, len(diags))
	for _, d := range diags {
		t.Logf("  %s", d)
	}
}

// TestSeededRcacheUnlockCaught removes the Unlock on rcache.Do's hit path:
// the join select then blocks with the shard lock held and the hit return
// leaks it — both lockstate classes at once.
func TestSeededRcacheUnlockCaught(t *testing.T) {
	l := newTestLoader(t)
	prog := loadMutated(t, l, "internal/rcache", "repro/internal/rcachemut", func(dir string) {
		mutate(t, filepath.Join(dir, "rcache.go"),
			"\t\t\tsh.moveToFront(e)\n\t\t}\n\t\tsh.mu.Unlock()\n",
			"\t\t\tsh.moveToFront(e)\n\t\t}\n")
	})
	diags := Apply(prog, []*Analyzer{Lockstate})
	requireFinding(t, diags, "lockstate", "sh.mu")
}

// TestSeededCleanCopiesPass: the unmutated copies must be clean, proving the
// seeded tests detect the mutation and not some pre-existing finding.
func TestSeededCleanCopiesPass(t *testing.T) {
	l := newTestLoader(t)
	for _, tc := range []struct {
		realPkg, asPath string
		an              *Analyzer
	}{
		{"internal/rcache", "repro/internal/rcacheclean", Lockstate},
	} {
		prog := loadMutated(t, l, tc.realPkg, tc.asPath, func(string) {})
		if diags := Apply(prog, []*Analyzer{tc.an}); len(diags) != 0 {
			t.Errorf("unmutated %s copy flagged by %s: %s", tc.realPkg, tc.an.Name, render(t, l, diags))
		}
	}
}
