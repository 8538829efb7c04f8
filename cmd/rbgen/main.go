// Command rbgen builds a parameterized synthetic kernel (workload.Generate)
// and runs it across the paper's machine models — a quick way to explore how
// chain length, memory behavior, and branch predictability move the
// redundant-binary advantage.
//
// Usage:
//
//	rbgen -chain 16 -loads 2 -stores 1 -footprint 65536 -taken 85
//	rbgen -chain 8 -width 4 -asm        # print the generated assembly
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// stdout buffers the command's output; main flushes it and exits 1 if any
// of it could not be written.
var stdout = bufio.NewWriter(os.Stdout)

func main() {
	code := run()
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rbgen: writing output: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run is the command; it returns the exit status.
func run() int {
	chain := flag.Int("chain", 4, "dependent adds on the carried chain per iteration")
	loads := flag.Int("loads", 2, "loads per iteration")
	stores := flag.Int("stores", 1, "stores per iteration")
	footprint := flag.Int("footprint", 64<<10, "data footprint in bytes")
	taken := flag.Int("taken", 85, "data-dependent branch taken probability (0-100)")
	logical := flag.Int("logical", 1, "2's-complement logical ops per iteration")
	muls := flag.Int("muls", 0, "multiplies per iteration")
	iters := flag.Int("iters", 2000, "loop iterations")
	width := flag.Int("width", 8, "execution width")
	seed := flag.Uint64("seed", 1, "input data seed")
	showAsm := flag.Bool("asm", false, "print the generated assembly and exit")
	flag.Parse()

	w, err := workload.Generate(workload.GenParams{
		Name: "rbgen", Iterations: *iters, ChainLength: *chain,
		Loads: *loads, Stores: *stores, FootprintBytes: *footprint,
		BranchTakenPercent: *taken, LogicalOps: *logical, MulOps: *muls, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbgen: %v\n", err)
		return 2
	}
	if *showAsm {
		fmt.Fprint(stdout, w.Source)
		return 0
	}
	dec, err := w.Decoded()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbgen: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%d dynamic instructions\n\n", w.Description, dec.Len())
	fmt.Fprintf(stdout, "%-12s %8s %10s %12s\n", "machine", "IPC", "cycles", "mispredict")
	var base, rbf float64
	for _, cfg := range machine.All(*width) {
		r, err := core.Run(cfg, w.Name, dec, core.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbgen: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-12s %8.3f %10d %11.2f%%\n", cfg.Kind, r.IPC(), r.Cycles, 100*r.MispredictRate())
		switch cfg.Kind {
		case machine.Baseline:
			base = r.IPC()
		case machine.RBFull:
			rbf = r.IPC()
		}
	}
	if base > 0 {
		fmt.Fprintf(stdout, "\nRB-full vs Baseline: %+.1f%%\n", 100*(rbf/base-1))
	}
	return 0
}
