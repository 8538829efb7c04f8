// Command rbexp regenerates the paper's tables and figures.
//
// Usage:
//
//	rbexp -exp all            # everything, in paper order
//	rbexp -exp fig9           # one artifact: table1|table2|table3|
//	                          # fig9|fig10|fig11|fig12|fig13|fig14|summary
//	rbexp -exp all -parallel 1   # serial determinism oracle
//	rbexp -exp sampled -samples 10 -warmup 2000 -measure 2000
//	                          # SMARTS-sampled IPC vs the full-run oracle
//
// Output is plain text: each figure prints its data table (and an ASCII bar
// rendering for the IPC figures). The (machine, workload) cells of each
// experiment fan out over a bounded worker pool; -parallel 1 runs them
// serially, and because every simulation is deterministic the output is
// byte-identical at any parallelism. See EXPERIMENTS.md for paper-vs-
// measured commentary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/workload"
)

type artifact struct {
	name string
	run  func(context.Context, experiments.Runner, io.Writer) error
}

func ipc(fn func(context.Context, experiments.Runner) (*experiments.IPCFigure, error)) func(context.Context, experiments.Runner, io.Writer) error {
	return func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		f, err := fn(ctx, r)
		if err != nil {
			return err
		}
		return f.Render(w)
	}
}

// noRunner adapts a renderer that performs no simulation.
func noRunner(fn func(io.Writer) error) func(context.Context, experiments.Runner, io.Writer) error {
	return func(_ context.Context, _ experiments.Runner, w io.Writer) error { return fn(w) }
}

var artifacts = []artifact{
	{"fig1", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		d, err := experiments.Figure1(ctx, r)
		if err != nil {
			return err
		}
		return d.Render(w)
	}},
	{"table1", noRunner(func(w io.Writer) error {
		d, err := experiments.Table1()
		if err != nil {
			return err
		}
		return d.Render(w)
	})},
	{"table2", noRunner(experiments.RenderTable2)},
	{"table3", noRunner(experiments.RenderTable3)},
	{"fig9", ipc(experiments.Figure9)},
	{"fig10", ipc(experiments.Figure10)},
	{"fig11", ipc(experiments.Figure11)},
	{"fig12", ipc(experiments.Figure12)},
	{"fig13", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		d, err := experiments.Figure13(ctx, r)
		if err != nil {
			return err
		}
		return d.Render(w)
	}},
	{"fig14", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		d, err := experiments.Figure14(ctx, r)
		if err != nil {
			return err
		}
		return d.Render(w)
	}},
	{"sweeps", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		d, err := experiments.Sweeps(ctx, r)
		if err != nil {
			return err
		}
		return d.Render(w)
	}},
	{"summary", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		s, err := experiments.ComputeSummary(ctx, r)
		if err != nil {
			return err
		}
		return s.Render(w)
	}},
	{"sampled", func(ctx context.Context, r experiments.Runner, w io.Writer) error {
		h, ok := r.(*experiments.Harness)
		if !ok {
			return fmt.Errorf("sampled requires the standard harness")
		}
		cfg, err := machine.ByName("rb-full", 8)
		if err != nil {
			return err
		}
		if ciTarget > 0 {
			// Variance-adaptive mode: -samples seeds the first round, then
			// k doubles until the relative CI meets -ci-target.
			f, err := experiments.AdaptiveVsFull(ctx, h, cfg, workload.SPECint2000(), sampledSpec, ciTarget)
			if err != nil {
				return err
			}
			return f.Render(w)
		}
		f, err := experiments.SampledVsFull(ctx, h, cfg, workload.SPECint2000(), sampledSpec)
		if err != nil {
			return err
		}
		return f.Render(w)
	}},
}

// sampledSpec carries the -samples/-warmup/-measure/-ff-warm flags into the
// sampled artifact; ciTarget switches it to the variance-adaptive estimator.
var (
	sampledSpec experiments.SampleSpec
	ciTarget    float64
)

func main() {
	exp := flag.String("exp", "all", "artifact to regenerate (all, or one of: fig1 table1 table2 table3 fig9 fig10 fig11 fig12 fig13 fig14 sweeps summary sampled)")
	parallel := flag.Int("parallel", 0, "simulate up to N (machine, workload) cells concurrently (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&sampledSpec.Samples, "samples", 10, "sampled artifact: number of sample cells k")
	flag.IntVar(&sampledSpec.Warmup, "warmup", 2000, "sampled artifact: detailed warm-up instructions per cell")
	flag.IntVar(&sampledSpec.Measure, "measure", 2000, "sampled artifact: measured instructions per cell")
	ffWarm := flag.Int64("ff-warm", 0, "sampled artifact: functional-warming horizon (0 = continuous, the accurate default)")
	flag.Float64Var(&ciTarget, "ci-target", 0, "sampled artifact: grow the cell count until the relative 95% CI half-width reaches this target (0 = fixed -samples)")
	schedName := flag.String("sched", "event", "scheduler backend: event (calendar-queue wakeup) or poll (per-cycle rescan oracle)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()
	sampledSpec.FFWarm = *ffWarm

	backend, err := core.ParseBackend(*schedName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbexp: %v\n", err)
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rbexp: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "rbexp: -parallel must be >= 0\n")
		os.Exit(2)
	}
	harness := experiments.NewHarness(*parallel)
	harness.Backend = backend
	defer harness.Close()
	ctx := context.Background()

	run := func(a artifact) {
		if err := a.run(ctx, harness, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rbexp: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, a := range artifacts {
			if a.name == "sampled" {
				continue // estimator diagnostic, not a paper artifact
			}
			run(a)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		found := false
		for _, a := range artifacts {
			if a.name == name {
				run(a)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "rbexp: unknown artifact %q\n", name)
			os.Exit(2)
		}
	}
}
