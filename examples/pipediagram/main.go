// Pipeline-diagram demo: regenerates the paper's Figures 5 and 7.
//
// The Figure-4 dependency graph (SLL feeding AND, ADD, and SUB) is run on
// the RB machine with a full bypass network (Figure 5) and with the limited
// network (Figure 7), and the simulator's own stage timing is rendered as
// the cycle-by-cycle diagrams the paper draws by hand: the ADD catches the
// shift's redundant result back-to-back, the AND waits out the CV1/CV2
// conversion stages, and under the limited network the SUB slides several
// cycles to read both operands from the register file.
//
// Run: go run ./examples/pipediagram
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pipeview"
)

const figure4 = `
        li   r1, 7
        li   r2, 3
        sll  r1, #2, r3          ; SLL
        and  r3, #255, r4        ; AND needs 2's complement
        addq r3, r2, r5          ; ADD takes the redundant result
        subq r5, r3, r6          ; SUB needs ADD and SLL
        halt
`

func main() {
	p, err := asm.Assemble(figure4)
	if err != nil {
		log.Fatal(err)
	}
	trace, dec, err := core.TraceProgram(p, 1000)
	if err != nil {
		log.Fatal(err)
	}
	// Render only the dependency graph itself (skip the li setup).
	first := 0
	for i, te := range trace {
		if te.Inst.String() == "sll r1, #2, r3" {
			first = i
			break
		}
	}

	for _, cfg := range []machine.Config{machine.NewRBFull(4), machine.NewRBLimited(4)} {
		stages := make([]core.StageRecord, len(trace))
		if _, err := core.Run(cfg, "fig4", dec, core.Options{Stages: stages}); err != nil {
			log.Fatal(err)
		}
		which := "Figure 5 (full bypass network)"
		if cfg.Kind == machine.RBLimited {
			which = "Figure 7 (limited bypass network: no BYP-2, BYP-3 TC-only)"
		}
		fmt.Printf("%s — %s\n\n", which, cfg.Name)
		if err := pipeview.Render(os.Stdout, cfg, trace, stages, first, len(trace)-1); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("EX = execute, C1/C2 = redundant-to-2's-complement conversion,")
	fmt.Println("RF = register read, MM = memory access, WB = write-back.")
	fmt.Println("Under the limited network the SUB's operands both fall into")
	fmt.Println("availability holes and it reads them from the register file.")
}
