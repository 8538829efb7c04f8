// Adder-chain demo: the Figure-1 story of the paper.
//
// Three execution cores provide the same bandwidth: 1-cycle adders (Ideal),
// 2-cycle pipelined adders (Baseline, config B — no intermediate
// forwarding), and 1-cycle redundant binary adders whose results convert to
// 2's complement over two extra stages (RB, config C). This example times a
// serial chain of dependent ADDs and a chain that alternates ADD with a
// logical AND (which needs the converted 2's-complement value) on all four
// machine models.
//
// Run: go run ./examples/adderchain
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
)

func buildLoop(body string, reps, iters int) string {
	var b strings.Builder
	b.WriteString("        li r1, 1\n")
	fmt.Fprintf(&b, "        li r29, %d\nloop:\n", iters)
	for i := 0; i < reps; i++ {
		b.WriteString(body)
	}
	b.WriteString("        subq r29, #1, r29\n        bgt r29, loop\n        halt\n")
	return b.String()
}

func run(cfg machine.Config, src string) *core.Result {
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := core.DecodeProgram(prog, 10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	r, err := core.Run(cfg, "chain", dec, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	const reps, iters = 20, 500
	addChain := buildLoop("        addq r1, #1, r1\n", reps, iters)
	mixChain := buildLoop("        addq r1, #3, r1\n        and r1, #255, r1\n", reps/2, iters)

	fmt.Println("Serial dependent ADD chain (cycles per ADD):")
	fmt.Println("  paper: RB adders execute dependent ADDs back-to-back;")
	fmt.Println("  2-cycle pipelined adders cannot (Figure 1, configs B vs C).")
	for _, cfg := range machine.All(4) {
		r := run(cfg, addChain)
		fmt.Printf("  %-12s %6.3f cycles/add  (IPC %.3f)\n",
			cfg.Kind.String(), float64(r.Cycles)/float64(reps*iters), r.IPC())
	}

	fmt.Println()
	fmt.Println("Alternating ADD -> AND chain (cycles per pair):")
	fmt.Println("  the AND needs 2's complement, so RB machines pay the 2-cycle")
	fmt.Println("  format conversion on every ADD->AND edge (Table 3: 1 (3)).")
	for _, cfg := range machine.All(4) {
		r := run(cfg, mixChain)
		fmt.Printf("  %-12s %6.3f cycles/pair (IPC %.3f)\n",
			cfg.Kind.String(), float64(r.Cycles)/float64(reps/2*iters), r.IPC())
	}

	fmt.Println()
	fmt.Println("Takeaway: latency-critical ADD chains favor the RB machines;")
	fmt.Println("conversion-heavy chains favor plain 2's complement — which is")
	fmt.Println("why the paper measures how often conversions land on the")
	fmt.Println("critical path (Figure 13).")
}
