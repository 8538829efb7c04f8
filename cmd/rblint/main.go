// Command rblint is the project's custom static-analysis pass. It enforces
// the invariants the simulator's correctness argument rests on but that go
// vet cannot see, in two layers:
//
// Source analyzers (internal/lint) over the given packages:
//
//   - rbconstruct: rb.Number may only be built through its constructors, so
//     the disjoint (plus, minus) digit invariant (paper §3.2) is enforced at
//     every construction site.
//   - determinism: simulator packages may not read the wall clock, use the
//     global math/rand state, or feed map-iteration order into reports.
//   - lockstate: no mutex held across a blocking operation, and no
//     unlock-missing-on-early-return path (CFG/dataflow).
//
// Goroutine leaks and hot-path allocations are checked at run time instead:
// internal/leakcheck ends every test binary of a package that starts
// goroutines, and testing.AllocsPerRun tests pin each hot path at zero.
//
// Netlist analyzers (internal/gates) over the built adder circuits:
// structural lint (cycles, dangling inputs, unused gates) and the static
// depth-budget report asserting the paper's delay asymptotics — constant RB
// adder depth across widths, Θ(log n) converter/Kogge-Stone, Θ(n) ripple.
//
// Usage:
//
//	rblint [-json] [-rules r1,r2] [-list] [packages...]
//
// Package patterns follow the usual shapes ("./...", "./internal/rb", a
// directory); the default is ./... from the module root. -rules restricts
// the run to a comma-separated subset; -list prints the rule set and exits.
// A finding on a line marked //rblint:allow <rule> is suppressed; a
// directive naming a rule that does not exist (nor "all") is itself a
// finding, since it would suppress nothing. The exit
// status is 0 iff no findings, no load errors, and every depth budget holds,
// so the tier-1 CI gate can run it directly. A package that fails to load is
// reported and skipped — findings from the packages that did load are still
// printed, and the run fails exactly once.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gates"
	"repro/internal/lint"
)

// report is the -json output shape.
type report struct {
	Passed      bool               `json:"passed"`
	Diagnostics []lint.Diagnostic  `json:"diagnostics"`
	LoadErrors  []string           `json:"load_errors,omitempty"`
	Timings     []lint.RuleTiming  `json:"timings"`
	Netlist     *gates.DepthReport `json:"netlist"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		flush()
		return
	}
	analyzers, err := selectRules(analyzers, *rules)
	if err != nil {
		fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, module, err := lint.FindModule(cwd)
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(root, module)

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}
	// Load errors no longer abort the run: the packages that did load are
	// analyzed and their findings reported alongside the errors, so a broken
	// directory cannot mask findings elsewhere in the tree.
	prog, loadErrs := loader.LoadAll(paths)

	rep := report{Netlist: gates.CheckDepthBudgets()}
	rep.Diagnostics, rep.Timings = lint.ApplyTimed(prog, analyzers)
	for _, e := range loadErrs {
		rep.LoadErrors = append(rep.LoadErrors, e.Error())
	}
	// A package that fails to type-check can hide findings; surface it as a
	// failure rather than silently analyzing less.
	for _, pkg := range prog.Pkgs {
		if pkg.TypeError != nil {
			rep.LoadErrors = append(rep.LoadErrors, fmt.Sprintf("%s: %v", pkg.Path, pkg.TypeError))
		}
	}
	rep.Passed = len(rep.Diagnostics) == 0 && len(rep.LoadErrors) == 0 && rep.Netlist.Passed()
	if rep.Diagnostics == nil {
		rep.Diagnostics = []lint.Diagnostic{}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, e := range rep.LoadErrors {
			fmt.Fprintln(os.Stderr, "rblint: load:", e)
		}
		for _, d := range rep.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		printNetlist(rep.Netlist)
		if rep.Passed {
			fmt.Fprintf(stdout, "rblint: %d packages, %d rules, %d netlists: clean\n",
				len(prog.Pkgs), len(analyzers), len(rep.Netlist.Entries))
		}
		flush()
	}
	if !rep.Passed {
		os.Exit(1)
	}
}

// selectRules filters the analyzer set by the -rules flag value.
func selectRules(all []*lint.Analyzer, spec string) ([]*lint.Analyzer, error) {
	if spec == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (run rblint -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules %q selects no rules", spec)
	}
	return out, nil
}

// printNetlist renders netlist findings and the depth table (findings and
// violations only in the default mode; the full table lives in -json).
func printNetlist(r *gates.DepthReport) {
	for _, e := range r.Entries {
		for _, i := range e.Issues {
			fmt.Fprintf(stdout, "netlist %s width %d: %s\n", e.Circuit, e.Width, i)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintln(stdout, "depth-budget:", v)
	}
}

// stdout buffers the text output; flush writes it out, and output that
// cannot be written is a tool failure (exit 2), as with -json.
var stdout = bufio.NewWriter(os.Stdout)

func flush() {
	if err := stdout.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rblint:", err)
	os.Exit(2)
}
