// Limited-bypass demo: holes in data availability and scheduling around
// them (paper §4.2-4.3).
//
// Removing a bypass level removes exactly one cycle of result availability.
// The wakeup logic's countdown shift register (Figure 8b) is seeded with the
// availability pattern — interleaved 0s and 1s when levels are missing — so
// the scheduler simply never wakes a dependent during a hole.
//
// Run: go run ./examples/limitedbypass
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/bypass"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	// Part 1: the shift-register view. An RB-limited machine's 1-cycle add:
	// available at offset 1 (BYP-1), a 2-cycle hole, then the register file.
	cfg := machine.NewRBLimited(8)
	rbIn, tcIn := cfg.Schedules(0) // integer arithmetic class
	fmt.Println("RB-limited availability of an ADD result (offsets after production):")
	fmt.Printf("  RB consumers: ")
	for o := int64(1); o <= 6; o++ {
		fmt.Printf("%d:%v ", o, rbIn.AvailableAt(o))
	}
	fmt.Printf("\n  TC consumers: ")
	for o := int64(1); o <= 6; o++ {
		fmt.Printf("%d:%v ", o, tcIn.AvailableAt(o))
	}
	fmt.Printf("\n  holes: %v (the paper's \"2-cycle hole\")\n\n", rbIn.Holes())

	timer := sched.NewShiftTimer(rbIn, 1)
	fmt.Print("Figure-8b shift register seeded at grant time (1-cycle op): ")
	for i := 0; i < 8; i++ {
		if timer.Output() {
			fmt.Print("1")
		} else {
			fmt.Print("0")
		}
		timer.Tick()
	}
	fmt.Println("  <- interleaved 0s and 1s encode the missing levels")

	// Part 2: the paper's Figure 4 dependency graph (SLL -> {ADD, AND};
	// ADD,SLL -> SUB) timed on full vs limited machines.
	src := `
        li   r1, 17
        li   r29, 400
loop:   sll  r1, #2, r2          ; SLL
        and  r2, #255, r3        ; AND needs 2's complement
        addq r2, #5, r4          ; ADD takes the RB result
        subq r4, r2, r5          ; SUB needs both earlier results
        addq r5, r1, r1
        subq r29, #1, r29
        bgt  r29, loop
        halt
`
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	fig4, err := core.DecodeProgram(prog, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure-4 style dependency kernel (cycles per iteration):")
	for _, c := range []machine.Config{machine.NewRBFull(8), machine.NewRBLimited(8), machine.NewBaseline(8), machine.NewIdeal(8)} {
		r, err := core.Run(c, "fig4", fig4, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %6.3f\n", c.Kind.String(), float64(r.Cycles)/400)
	}

	// Part 3: Figure 14 in miniature — the Ideal machine with levels removed,
	// on one real workload.
	w, _ := workload.ByName("crafty")
	dec, err := w.Decoded()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIdeal 8-wide on %q with limited bypass networks:\n", w.Name)
	for _, bp := range []bypass.Config{
		bypass.Full(), bypass.Full().Without(1), bypass.Full().Without(2),
		bypass.Full().Without(3), bypass.Full().Without(1, 2), bypass.Full().Without(2, 3),
	} {
		c := machine.NewIdealLimited(8, bp)
		r, err := core.Run(c, w.Name, dec, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s IPC %.3f\n", bp, r.IPC())
	}
	fmt.Println("\nRemoving the rarely-used levels (2, 3) barely moves IPC;")
	fmt.Println("removing level 1 breaks back-to-back execution and costs the most.")
}
