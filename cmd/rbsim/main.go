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
	"bufio"
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
	"repro/internal/workload"
)

// stdout buffers the command's output; main flushes it and exits 1 if any
// of it could not be written.
var stdout = bufio.NewWriter(os.Stdout)

func main() {
	code := run()
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rbsim: writing output: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run is the command; it returns the exit status.
func run() int {
	wlName := flag.String("workload", "compress", "workload name (see -list)")
	machName := flag.String("machine", "ideal", "machine model: baseline, rb-limited, rb-full, ideal, staggered")
	width := flag.Int("width", 8, "execution width: 4 or 8")
	check := flag.Bool("check", false, "check every retired result through the redundant binary datapath and against a lockstep reference emulator")
	wrongPath := flag.Bool("wrong-path", false, "fetch and squash the predicted wrong path after mispredictions")
	pipeline := flag.Int("pipeline", 0, "print a cycle-by-cycle pipeline diagram of the first N instructions")
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

	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "rbsim: %v\n", err)
		return code
	}
	backend, err := core.ParseBackend(*schedName)
	if err != nil {
		return fail(2, err)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return fail(1, err)
	}
	defer stopProf()

	if *list {
		for _, w := range workload.All() {
			fmt.Fprintf(stdout, "%-10s %-12s %s\n", w.Name, w.Suite, w.Description)
		}
		return 0
	}

	w, ok := workload.ByName(*wlName)
	if !ok {
		return fail(2, fmt.Errorf("unknown workload %q (try -list)", *wlName))
	}

	cfg, err := machine.ByNameWithout(strings.ToLower(*machName), *width, *noLevels)
	if err != nil {
		return fail(2, err)
	}
	if *saveCkpt != "" {
		if err := doSaveCkpt(cfg, w, *saveCkpt, *ckptAt); err != nil {
			return fail(1, err)
		}
		return 0
	}
	if *loadCkpt != "" {
		// -load-ckpt reads its workload from the file, so the -workload
		// default must not stand in for it.
		wlFlagSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				wlFlagSet = true
			}
		})
		if _, err := doLoadCkpt(cfg, backend, *check, *wrongPath, *loadCkpt, *wlName, wlFlagSet); err != nil {
			return fail(1, err)
		}
		return 0
	}

	prog, err := w.Program()
	if err != nil {
		return fail(1, err)
	}
	dec, err := w.Decoded()
	if err != nil {
		return fail(1, err)
	}
	// One run's options, for the main run and -pipeline alike.
	opt := core.Options{Backend: backend}
	if *check {
		opt.Oracle = emu.New(prog)
	}
	if *wrongPath {
		opt.WrongPath = emu.New(prog)
	}
	if *pipeline > 0 {
		// The diagram prints instruction text, which only the full trace
		// holds.
		trace, err := w.Trace()
		if err != nil {
			return fail(1, err)
		}
		n := *pipeline
		if n > len(trace) {
			n = len(trace)
		}
		opt.Stages = make([]core.StageRecord, len(trace))
		if _, err := core.Run(cfg, w.Name, dec, opt); err != nil {
			return fail(1, err)
		}
		if err := pipeview.Render(stdout, cfg, trace, opt.Stages, 0, n); err != nil {
			return fail(1, err)
		}
		return 0
	}
	r, err := core.Run(cfg, w.Name, dec, opt)
	if err != nil {
		return fail(1, err)
	}

	fmt.Fprintf(stdout, "workload:      %s (%s)\n", w.Name, w.Suite)
	fmt.Fprintf(stdout, "machine:       %s\n", cfg.Name)
	fmt.Fprintf(stdout, "instructions:  %d\n", r.Instructions)
	fmt.Fprintf(stdout, "cycles:        %d\n", r.Cycles)
	fmt.Fprintf(stdout, "IPC:           %.4f\n", r.IPC())
	fmt.Fprintf(stdout, "occupancy:     %.1f in-flight instructions (window %d)\n", r.AvgOccupancy(), cfg.WindowSize)
	fmt.Fprintf(stdout, "branches:      %d (%.2f%% mispredicted)\n", r.Branches, 100*r.MispredictRate())
	fmt.Fprintf(stdout, "L1I:           %.2f%% miss (%d accesses)\n", 100*r.L1I.MissRate(), r.L1I.Accesses())
	fmt.Fprintf(stdout, "L1D:           %.2f%% miss (%d accesses)\n", 100*r.L1D.MissRate(), r.L1D.Accesses())
	fmt.Fprintf(stdout, "L2:            %.2f%% miss (%d accesses)\n", 100*r.L2.MissRate(), r.L2.Accesses())
	var lastTotal int64
	for _, v := range r.LastArriving {
		lastTotal += v
	}
	fmt.Fprintf(stdout, "bypassed:      %.1f%% of instructions had a bypassed source\n",
		100*float64(r.BypassedInstructions)/float64(max64(r.Instructions, 1)))
	if lastTotal > 0 {
		fmt.Fprintf(stdout, "bypass cases:  ")
		for c := core.BypassCase(0); c < core.NumBypassCases; c++ {
			fmt.Fprintf(stdout, "%s %.1f%%  ", c, 100*float64(r.LastArriving[c])/float64(lastTotal))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "source levels: %.1f%% first-level bypass, %.1f%% other level, %.1f%% register file/none\n",
		pct(r.SrcLevel1, r.Instructions), pct(r.SrcOtherLevel, r.Instructions), pct(r.SrcNoBypass, r.Instructions))
	fmt.Fprintf(stdout, "dynamic mix:\n")
	for row := isa.Table1Row(0); row < isa.NumTable1Rows; row++ {
		fmt.Fprintf(stdout, "  %-45s %.1f%%\n", row.String(), pct(r.Table1Counts[row], r.Instructions))
	}
	printModes(r, *wrongPath, *check)
	return 0
}

// printModes prints the run modes' report lines.
func printModes(r *core.Result, wrongPath, check bool) {
	if wrongPath {
		fmt.Fprintf(stdout, "wrong path:    %d squashed instructions reached execution\n", r.WrongPathIssued)
	}
	if check {
		fmt.Fprintf(stdout, "datapath:      %d results verified through the redundant binary datapath\n", r.DatapathChecked)
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
	fmt.Fprintf(stdout, "wrote checkpoint of %s at instruction %d to %s (fingerprint %s)\n",
		w.Name, st.Seq(), path, st.Fingerprint())
	return nil
}

// doLoadCkpt resumes a checkpoint, replays the remainder of the workload
// through the detailed simulator with the checkpointed warm state, and prints
// the measured statistics. The run modes step emulators resumed from the
// same checkpoint: with check set, the commit-time check's reference, and
// with wrongPath set, the fetch-order emulator.
func doLoadCkpt(cfg machine.Config, backend core.Backend, check, wrongPath bool, path, wlName string, wlFlagSet bool) (*core.Result, error) {
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
	var d core.Decoder
	var te emu.TraceEntry
	for n := int64(0); n < remaining && !e.Halted(); n++ {
		if err := e.StepInto(&te); err != nil {
			return nil, err
		}
		d.Add(&te)
	}
	dec, err := d.Decoded()
	if err != nil {
		return nil, err
	}
	if dec.Len() == 0 {
		return nil, fmt.Errorf("checkpoint is at instruction %d, past the end of the program", st.Seq())
	}
	opt := core.Options{Backend: backend, Hier: &st.Hier, Pred: st.Pred}
	if check {
		opt.Oracle = emu.Resume(prog, st.Arch)
	}
	if wrongPath {
		opt.WrongPath = emu.Resume(prog, st.Arch)
	}
	r, err := core.Run(cfg, w.Name, dec, opt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload:      %s (resumed at instruction %d)\n", w.Name, st.Seq())
	fmt.Fprintf(stdout, "machine:       %s\n", cfg.Name)
	fmt.Fprintf(stdout, "instructions:  %d\n", r.Instructions)
	fmt.Fprintf(stdout, "cycles:        %d\n", r.Cycles)
	fmt.Fprintf(stdout, "IPC:           %.4f\n", r.IPC())
	fmt.Fprintf(stdout, "branches:      %d (%.2f%% mispredicted)\n", r.Branches, 100*r.MispredictRate())
	fmt.Fprintf(stdout, "L1D:           %.2f%% miss (%d accesses)\n", 100*r.L1D.MissRate(), r.L1D.Accesses())
	printModes(r, wrongPath, check)
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
