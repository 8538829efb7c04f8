// Package lint is the static-analysis framework behind cmd/rblint: a small
// analyzer driver built entirely on the standard library's go/ast, go/parser
// and go/types packages.
//
// The simulator's correctness argument is structural — redundant binary
// digits are disjoint (plus, minus) pairs, and the machine models must be
// deterministic replicas of one another — and the serving layer's rests on
// its locks having the right shape. The rules here
// check those shapes statically, at review time, before any simulation
// runs. A property the program can check where it holds is checked there
// instead: bypass schedules by machine.Config.Validate, opcode coverage by
// internal/check's ops layer, goroutine leaks by internal/leakcheck at the
// end of each test binary, and hot-path allocations by AllocsPerRun tests.
//
// The framework provides:
//
//   - Diagnostic: a position-annotated finding produced by an analyzer.
//   - Analyzer: a named rule, run over each package.
//   - Package / Program: type-checked source loaded by Loader (load.go).
//   - Allowlist directives: a "//rblint:allow <rule> [<rule>...]" comment
//     suppresses findings of the named rules on the comment's line (for a
//     trailing comment) or on the line directly below (for a standalone
//     comment line). Every suppression is deliberate and greppable.
//
// The concrete rules live in rbconstruct.go, determinism.go and
// lockstate.go; the gate-netlist checks (which operate on built
// gates.Circuit values rather than source) live in internal/gates/lint.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzers returns the default rule set cmd/rblint runs. rbconstruct is
// syntactic; determinism's taint pass and lockstate ride on the CFG/dataflow
// engine in cfg.go and dataflow.go.
func Analyzers() []*Analyzer {
	return []*Analyzer{RBConstruct, Determinism, Lockstate}
}

// Diagnostic is one finding: a rule violation anchored to a source position.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Rule, d.Message)
}

// Analyzer is one static-analysis rule.
type Analyzer struct {
	// Name is the rule identifier used in reports and allow directives.
	Name string
	// Doc is a one-line description for -help style output.
	Doc string
	// Run analyzes a single package.
	Run func(pkg *Package) []Diagnostic
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Name is the package name from the source (which may differ from the
	// last path segment, e.g. test fixtures).
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set all positions resolve through.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types and TypesInfo carry go/types results. TypesInfo is always
	// non-nil; Types may be nil if type checking failed hard.
	Types     *types.Package
	TypesInfo *types.Info
	// TypeError records the first type-checking error, if any. Analyzers
	// degrade gracefully (rules needing type information skip nodes whose
	// types did not resolve), and the driver surfaces the error separately.
	TypeError error

	// allow maps file name -> line -> set of rule names suppressed there.
	allow map[string]map[int]map[string]bool
}

// Program is the set of packages one driver invocation analyzes, in load
// order.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// diag constructs a Diagnostic for a node position within the package.
func (pkg *Package) diag(pos token.Pos, rule, format string, args ...any) Diagnostic {
	p := pkg.Fset.Position(pos)
	return Diagnostic{
		Pos: p, File: p.Filename, Line: p.Line, Column: p.Column,
		Rule: rule, Message: fmt.Sprintf(format, args...),
	}
}

// PkgNameOf resolves an identifier to the import path of the package it
// names, or "" if the identifier is not a package name. This is how rules
// recognize qualified references (time.Now, rand.Intn, rb.Number) without
// being fooled by import renaming or shadowing.
func (pkg *Package) PkgNameOf(id *ast.Ident) string {
	if obj, ok := pkg.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// selectorPkg reports the imported package path and selected name of a
// qualified reference expression (pkg.Name), or ("", "") otherwise.
func (pkg *Package) selectorPkg(e ast.Expr) (path, name string) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return pkg.PkgNameOf(id), sel.Sel.Name
}

// allowDirective is the comment prefix that suppresses findings.
const allowDirective = "//rblint:allow"

// collectAllows scans a file's comments for allow directives. src is the raw
// file content, used to decide whether a directive is trailing (suppresses
// its own line) or standalone (suppresses the next line).
func (pkg *Package) collectAllows(file *ast.File, src []byte) {
	if pkg.allow == nil {
		pkg.allow = map[string]map[int]map[string]bool{}
	}
	lineStarts := buildLineStarts(src)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, allowDirective) {
				continue
			}
			rules := strings.Fields(strings.TrimPrefix(text, allowDirective))
			if len(rules) == 0 {
				continue
			}
			p := pkg.Fset.Position(c.Pos())
			line := p.Line
			if standaloneComment(src, lineStarts, line, p.Column) {
				line++ // a directive on its own line guards the next one
			}
			fm := pkg.allow[p.Filename]
			if fm == nil {
				fm = map[int]map[string]bool{}
				pkg.allow[p.Filename] = fm
			}
			rm := fm[line]
			if rm == nil {
				rm = map[string]bool{}
				fm[line] = rm
			}
			for _, r := range rules {
				rm[strings.TrimSuffix(r, ",")] = true
			}
		}
	}
}

// buildLineStarts returns byte offsets of each line start (1-based index).
func buildLineStarts(src []byte) []int {
	starts := []int{0, 0} // starts[1] == 0; index 0 unused
	for i, b := range src {
		if b == '\n' {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// standaloneComment reports whether the comment starting at (line, col) has
// only whitespace before it on its line.
func standaloneComment(src []byte, lineStarts []int, line, col int) bool {
	if line <= 0 || line >= len(lineStarts) {
		return false
	}
	start := lineStarts[line]
	end := start + col - 1
	if end > len(src) {
		end = len(src)
	}
	return strings.TrimSpace(string(src[start:end])) == ""
}

// allowed reports whether a finding of rule at pos is suppressed by an
// allow directive.
func (pkg *Package) allowed(d Diagnostic) bool {
	fm := pkg.allow[d.File]
	if fm == nil {
		return false
	}
	rm := fm[d.Line]
	return rm != nil && (rm[d.Rule] || rm["all"])
}

// RuleTiming records one analyzer's wall-clock cost over the whole program,
// for the per-rule timing table in rblint -json. The JSON key is "analyzer"
// (not "rule") so artifact post-processing that greps diagnostics by their
// "rule" key never collides with timing entries.
type RuleTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"millis"`
}

// Apply runs the analyzers over the program, filters allowlisted findings,
// and returns the remainder sorted by position then rule.
func Apply(prog *Program, analyzers []*Analyzer) []Diagnostic {
	ds, _ := ApplyTimed(prog, analyzers)
	return ds
}

// ApplyTimed is Apply plus a per-analyzer timing entry (in analyzer order,
// one per analyzer whether or not it found anything).
func ApplyTimed(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []RuleTiming) {
	var out []Diagnostic
	timings := make([]RuleTiming, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		out = append(out, applyOne(prog, a)...)
		timings = append(timings, RuleTiming{
			Analyzer: a.Name,
			Millis:   float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	sortDiags(out)
	return out, timings
}

// applyOne runs one analyzer over the program and filters allowlisted
// findings.
func applyOne(prog *Program, a *Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, d := range a.Run(pkg) {
			if !pkg.allowed(d) {
				out = append(out, d)
			}
		}
	}
	return out
}

// sortDiags orders findings by position then rule for stable reports.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
}
