// Command rbasm assembles, disassembles, and functionally runs programs in
// the repository's Alpha-like assembly language.
//
// Usage:
//
//	rbasm -run prog.s               # assemble and execute, print registers
//	rbasm -dis prog.s               # assemble and print the decoded program
//	rbasm -run -trace prog.s        # also print the committed trace
//	rbasm -run -max 100000 prog.s   # instruction budget (default 10M)
//
// The emulator is the architectural golden model of internal/emu: it
// executes in 2's complement; the redundant binary datapath is exercised by
// the timing simulator (rbsim -check).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/emu"
)

// stdout buffers the command's output; main flushes it and exits 1 if any
// of it could not be written.
var stdout = bufio.NewWriter(os.Stdout)

func main() {
	code := run()
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rbasm: writing output: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run is the command; it returns the exit status.
func run() int {
	run := flag.Bool("run", false, "execute the program")
	dis := flag.Bool("dis", false, "print the decoded program")
	showTrace := flag.Bool("trace", false, "print every committed instruction (with -run)")
	maxInsts := flag.Int64("max", 10_000_000, "instruction budget for -run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rbasm [-run|-dis] [-trace] [-max N] prog.s")
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbasm: %v\n", err)
		return 1
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbasm: %v\n", err)
		return 1
	}

	if *dis || !*run {
		for i, in := range prog.Insts {
			marker := "  "
			if i == prog.Entry {
				marker = "=>"
			}
			fmt.Fprintf(stdout, "%s %4d: %s\n", marker, i, in)
		}
		if !*run {
			return 0
		}
	}

	e := emu.New(prog)
	var fn func(emu.TraceEntry)
	if *showTrace {
		fn = func(t emu.TraceEntry) {
			fmt.Fprintf(stdout, "%8d  pc=%-5d %-28s", t.Seq, t.PC, t.Inst.String())
			if t.HasResult {
				fmt.Fprintf(stdout, " -> %#x", t.Result)
			}
			if t.Inst.Class().IsMemory() {
				fmt.Fprintf(stdout, " [ea %#x]", t.EA)
			}
			fmt.Fprintln(stdout)
		}
	}
	n, err := e.Run(*maxInsts, fn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbasm: after %d instructions: %v\n", n, err)
		return 1
	}
	fmt.Fprintf(stdout, "halted after %d instructions\n", n)
	for i := 0; i < 32; i += 4 {
		for j := i; j < i+4; j++ {
			fmt.Fprintf(stdout, "r%-2d %#-18x ", j, e.Regs[j])
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
