// Command rbsim runs one workload on one machine model and prints detailed
// statistics.
//
// Usage:
//
//	rbsim -workload compress -machine rb-full -width 8
//	rbsim -list                      # list workloads
//	rbsim -workload mcf -machine ideal -width 4 -check
//	rbsim -workload gzip -machine ideal -no-bypass-levels 1,2
//
// Machines: baseline, rb-limited, rb-full, ideal (paper §5.1). The -check
// flag arms the commit-time check: every retired result is recomputed
// through the redundant binary datapath and replayed in lockstep on the
// functional reference. -no-bypass-levels removes bypass levels from the
// Ideal machine (paper §4.2 / Figure 14).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pipeview"
	"repro/internal/prof"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func main() {
	wlName := flag.String("workload", "compress", "workload name (see -list)")
	machName := flag.String("machine", "ideal", "machine model: baseline, rb-limited, rb-full, ideal, staggered")
	width := flag.Int("width", 8, "execution width: 4 or 8")
	check := flag.Bool("check", false, "check every retired result through the redundant binary datapath and against a lockstep reference emulator")
	wrongPath := flag.Bool("wrong-path", false, "fetch and squash the predicted wrong path after mispredictions")
	pipeline := flag.Int("pipeline", 0, "print a cycle-by-cycle pipeline diagram of the first N instructions")
	saveTrace := flag.String("save-trace", "", "write the workload's committed trace to this file and exit")
	fromTrace := flag.String("from-trace", "", "simulate a trace previously written with -save-trace instead of tracing the workload")
	saveCkpt := flag.String("save-ckpt", "", "fast-forward the workload and write an architectural checkpoint to this file")
	ckptAt := flag.Int64("ckpt-at", 0, "instruction count at which -save-ckpt captures (functional warming runs throughout)")
	loadCkpt := flag.String("load-ckpt", "", "resume from a checkpoint written with -save-ckpt and simulate the remainder in detail")
	noLevels := flag.String("no-bypass-levels", "", "comma-separated bypass levels to remove (ideal machine only)")
	list := flag.Bool("list", false, "list available workloads and exit")
	schedName := flag.String("sched", "event", "scheduler backend: event (calendar-queue wakeup) or poll (per-cycle rescan oracle)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	backend, err := core.ParseBackend(*schedName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-10s %-12s %s\n", w.Name, w.Suite, w.Description)
		}
		return
	}

	w, ok := workload.ByName(*wlName)
	if !ok {
		fmt.Fprintf(os.Stderr, "rbsim: unknown workload %q (try -list)\n", *wlName)
		os.Exit(2)
	}

	cfg, err := machine.ByNameWithout(strings.ToLower(*machName), *width, *noLevels)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		os.Exit(2)
	}
	// -load-ckpt and -from-trace read their workload from a file, so the
	// -workload default must not stand in for it.
	wlFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			wlFlagSet = true
		}
	})
	if *saveCkpt != "" {
		if err := doSaveCkpt(cfg, w, *saveCkpt, *ckptAt); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *loadCkpt != "" {
		if _, err := doLoadCkpt(cfg, backend, *check, *wrongPath, *loadCkpt, *wlName, wlFlagSet); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			if errors.Is(err, errCkptWrongPath) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		return
	}

	prog, err := w.Program()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		os.Exit(1)
	}
	var trace []emu.TraceEntry
	if *fromTrace != "" {
		if !wlFlagSet {
			fmt.Fprintf(os.Stderr, "rbsim: -from-trace requires -workload naming the trace's workload\n")
			os.Exit(2)
		}
		f, err := os.Open(*fromTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		trace, err = tracefile.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		if len(trace) > 0 {
			pc := trace[0].PC
			if pc < 0 || pc >= len(prog.Insts) || trace[0].Inst != prog.Insts[pc] {
				fmt.Fprintf(os.Stderr, "rbsim: trace %s does not start in workload %s (entry pc %d: %s)\n",
					*fromTrace, w.Name, pc, trace[0].Inst)
				os.Exit(2)
			}
		}
	} else {
		trace, err = w.Trace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		if err := tracefile.Write(f, trace); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace entries to %s\n", len(trace), *saveTrace)
		return
	}
	// One run's options, for the main run and -pipeline alike.
	opt := core.Options{Backend: backend}
	if *check {
		opt.Oracle = emu.New(prog)
	}
	if *wrongPath {
		opt.WrongPath = prog
	}
	if *pipeline > 0 {
		n := *pipeline
		if n > len(trace) {
			n = len(trace)
		}
		opt.Stages = make([]core.StageRecord, len(trace))
		if _, err := core.Run(cfg, w.Name, trace, opt); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		if err := pipeview.Render(os.Stdout, cfg, trace, opt.Stages, 0, n); err != nil {
			fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	r, err := core.Run(cfg, w.Name, trace, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("workload:      %s (%s)\n", w.Name, w.Suite)
	fmt.Printf("machine:       %s\n", cfg.Name)
	fmt.Printf("instructions:  %d\n", r.Instructions)
	fmt.Printf("cycles:        %d\n", r.Cycles)
	fmt.Printf("IPC:           %.4f\n", r.IPC())
	fmt.Printf("occupancy:     %.1f in-flight instructions (window %d)\n", r.AvgOccupancy(), cfg.WindowSize)
	fmt.Printf("branches:      %d (%.2f%% mispredicted)\n", r.Branches, 100*r.MispredictRate())
	fmt.Printf("L1I:           %.2f%% miss (%d accesses)\n", 100*r.L1I.MissRate(), r.L1I.Accesses())
	fmt.Printf("L1D:           %.2f%% miss (%d accesses)\n", 100*r.L1D.MissRate(), r.L1D.Accesses())
	fmt.Printf("L2:            %.2f%% miss (%d accesses)\n", 100*r.L2.MissRate(), r.L2.Accesses())
	var lastTotal int64
	for _, v := range r.LastArriving {
		lastTotal += v
	}
	fmt.Printf("bypassed:      %.1f%% of instructions had a bypassed source\n",
		100*float64(r.BypassedInstructions)/float64(max64(r.Instructions, 1)))
	if lastTotal > 0 {
		fmt.Printf("bypass cases:  ")
		for c := core.BypassCase(0); c < core.NumBypassCases; c++ {
			fmt.Printf("%s %.1f%%  ", c, 100*float64(r.LastArriving[c])/float64(lastTotal))
		}
		fmt.Println()
	}
	fmt.Printf("source levels: %.1f%% first-level bypass, %.1f%% other level, %.1f%% register file/none\n",
		pct(r.SrcLevel1, r.Instructions), pct(r.SrcOtherLevel, r.Instructions), pct(r.SrcNoBypass, r.Instructions))
	fmt.Printf("dynamic mix:\n")
	for row := isa.Table1Row(0); row < isa.NumTable1Rows; row++ {
		fmt.Printf("  %-45s %.1f%%\n", row.String(), pct(r.Table1Counts[row], r.Instructions))
	}
	if *wrongPath {
		fmt.Printf("wrong path:    %d squashed instructions reached execution\n", r.WrongPathIssued)
	}
	if *check {
		fmt.Printf("datapath:      %d results verified through the redundant binary datapath\n", r.DatapathChecked)
	}
}

// doSaveCkpt fast-forwards the workload functionally (warming caches and the
// branch predictor throughout) and writes an architectural checkpoint at
// instruction n.
func doSaveCkpt(cfg machine.Config, w *workload.Workload, path string, n int64) error {
	if n <= 0 {
		return fmt.Errorf("-save-ckpt requires -ckpt-at N with N > 0 (got %d)", n)
	}
	prog, err := w.Program()
	if err != nil {
		return err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return err
	}
	var st *ckpt.State
	plan := ckpt.Plan{Workload: w.Name, Max: w.MaxInsts, Stop: n}
	at, err := ckpt.FastForward(prog, ckpt.NewWarmer(hier, branch.New()), plan, func(s *ckpt.State) error {
		st = s
		return nil
	})
	switch {
	case errors.Is(err, ckpt.ErrHalted):
		return fmt.Errorf("workload %s halts after %d instructions, before -ckpt-at %d", w.Name, at, n)
	case errors.Is(err, ckpt.ErrNoHalt):
		return fmt.Errorf("workload %s exceeded %d instructions without halting, before -ckpt-at %d", w.Name, at, n)
	case err != nil:
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote checkpoint of %s at instruction %d to %s (fingerprint %s)\n",
		w.Name, st.Seq(), path, st.Fingerprint())
	return nil
}

// errCkptWrongPath refuses -wrong-path on a resumed checkpoint (exit 2).
var errCkptWrongPath = errors.New("-wrong-path cannot be combined with -load-ckpt: wrong-path state starts from the program image, not the checkpoint")

// doLoadCkpt resumes a checkpoint, replays the remainder of the workload
// through the detailed simulator with the checkpointed warm state, and prints
// the measured statistics. With check set, the commit-time check replays the
// remainder on a second emulator resumed from the same checkpoint.
func doLoadCkpt(cfg machine.Config, backend core.Backend, check, wrongPath bool, path, wlName string, wlFlagSet bool) (*core.Result, error) {
	if wrongPath {
		return nil, errCkptWrongPath
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := ckpt.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if wlFlagSet && wlName != st.Workload {
		return nil, fmt.Errorf("checkpoint %s was captured from workload %q, not %q", path, st.Workload, wlName)
	}
	w, ok := workload.ByName(st.Workload)
	if !ok {
		return nil, fmt.Errorf("checkpoint %s references unknown workload %q", path, st.Workload)
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	e := emu.Resume(prog, st.Arch)
	remaining := w.MaxInsts - st.Seq()
	if remaining <= 0 {
		return nil, fmt.Errorf("checkpoint is at instruction %d, at or past the workload bound %d", st.Seq(), w.MaxInsts)
	}
	trace := make([]emu.TraceEntry, 0, remaining)
	var te emu.TraceEntry
	for int64(len(trace)) < remaining {
		if err := e.StepInto(&te); err != nil {
			if e.Halted() {
				break
			}
			return nil, err
		}
		trace = append(trace, te)
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("checkpoint is at instruction %d, past the end of the program", st.Seq())
	}
	opt := core.Options{Backend: backend, Hier: &st.Hier, Pred: st.Pred}
	if check {
		opt.Oracle = emu.Resume(prog, st.Arch)
	}
	r, err := core.Run(cfg, w.Name, trace, opt)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload:      %s (resumed at instruction %d)\n", w.Name, st.Seq())
	fmt.Printf("machine:       %s\n", cfg.Name)
	fmt.Printf("instructions:  %d\n", r.Instructions)
	fmt.Printf("cycles:        %d\n", r.Cycles)
	fmt.Printf("IPC:           %.4f\n", r.IPC())
	fmt.Printf("branches:      %d (%.2f%% mispredicted)\n", r.Branches, 100*r.MispredictRate())
	fmt.Printf("L1D:           %.2f%% miss (%d accesses)\n", 100*r.L1D.MissRate(), r.L1D.Accesses())
	if check {
		fmt.Printf("datapath:      %d results verified through the redundant binary datapath\n", r.DatapathChecked)
	}
	return r, nil
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
