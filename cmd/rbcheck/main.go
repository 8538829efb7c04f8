// Command rbcheck runs the differential verification suite: lockstep oracle
// replays, cross-machine invariants, cross-layer adder equivalence, RB->TC
// converter equivalence, and the per-opcode equivalence tables (see
// internal/check).
//
// Usage:
//
//	rbcheck [-quick|-full] [-json] [-seed N] [-engine packed|scalar]
//
// The quick tier is the CI gate and finishes in seconds; the full tier runs
// every workload, both widths, and the deep exhaustive/random trial counts.
// -json emits one machine-readable object for CI consumption. -engine picks
// the gate-netlist evaluation engine for the adder/converter equivalence
// layers: the default bit-parallel 64-lane walk, or the scalar oracle it is
// pinned to (reports are identical either way, modulo durations). The exit
// status is 0 iff every check passed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
)

// stdout buffers the command's output; main flushes it and exits 1 if any
// of it could not be written.
var stdout = bufio.NewWriter(os.Stdout)

func main() {
	code := run()
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rbcheck: writing output: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run is the command; it returns the exit status.
func run() int {
	quick := flag.Bool("quick", true, "run the quick tier (the CI gate)")
	full := flag.Bool("full", false, "run the full tier (overrides -quick)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	seed := flag.Int64("seed", 0, "seed for randomized trials (0 = fixed default)")
	engine := flag.String("engine", "packed", "gate-netlist engine: packed (64-lane) or scalar (oracle)")
	flag.Parse()

	if *engine != "packed" && *engine != "scalar" {
		fmt.Fprintf(os.Stderr, "rbcheck: unknown -engine %q (want packed or scalar)\n", *engine)
		return 2
	}
	opts := check.Options{Full: *full, Seed: *seed, ScalarGates: *engine == "scalar"}
	_ = quick // -quick is the default; -full overrides it
	reports := check.Run(opts)
	passed := check.Passed(reports)

	if *jsonOut {
		tier := "quick"
		if opts.Full {
			tier = "full"
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Tier    string         `json:"tier"`
			Passed  bool           `json:"passed"`
			Reports []check.Report `json:"reports"`
		}{tier, passed, reports}); err != nil {
			fmt.Fprintln(os.Stderr, "rbcheck:", err)
			return 1
		}
	} else {
		var failed int
		for _, r := range reports {
			status := "ok  "
			if !r.Passed {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "%s  %-10s %-40s %10d trials  %6dms", status, r.Layer, r.Name, r.Trials, r.Millis)
			if r.Detail != "" {
				fmt.Fprintf(stdout, "  %s", r.Detail)
			}
			fmt.Fprintln(stdout)
		}
		if passed {
			fmt.Fprintf(stdout, "PASS: %d checks\n", len(reports))
		} else {
			fmt.Fprintf(stdout, "FAIL: %d of %d checks failed\n", failed, len(reports))
		}
	}
	if !passed {
		return 1
	}
	return 0
}
