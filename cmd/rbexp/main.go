// Command rbexp regenerates the paper's tables and figures.
//
// Usage:
//
//	rbexp -exp all            # everything, in paper order
//	rbexp -exp fig9,table2    # some artifacts, by their names in
//	                          # experiments.Artifacts
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
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/workload"
)

// sampled is rbexp's one artifact beyond experiments.Artifacts: the
// SMARTS estimator diagnostic, which -exp all skips.
func sampled(ctx context.Context, r experiments.Runner) (experiments.Artifact, error) {
	h, ok := r.(*experiments.Harness)
	if !ok {
		return nil, fmt.Errorf("sampled requires the standard harness")
	}
	cfg, err := machine.ByName("rb-full", 8)
	if err != nil {
		return nil, err
	}
	if ciTarget > 0 {
		// Variance-adaptive mode: -samples seeds the first round, then
		// k doubles until the relative CI meets -ci-target.
		return experiments.AdaptiveVsFull(ctx, h, cfg, workload.SPECint2000(), sampledSpec, ciTarget)
	}
	return experiments.SampledVsFull(ctx, h, cfg, workload.SPECint2000(), sampledSpec)
}

// sampledSpec carries the -samples/-warmup/-measure/-ff-warm flags into the
// sampled artifact; ciTarget switches it to the variance-adaptive estimator.
var (
	sampledSpec experiments.SampleSpec
	ciTarget    float64
)

func main() {
	exp := flag.String("exp", "all", "artifacts to regenerate: all, or a comma-separated list of "+strings.Join(experiments.ArtifactNames(), " ")+" sampled")
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

	run := func(name string, fn func(context.Context, experiments.Runner) (experiments.Artifact, error)) {
		a, err := fn(ctx, harness)
		var text []byte
		if err == nil {
			text, err = experiments.RenderText(a)
		}
		if err == nil {
			_, err = os.Stdout.Write(text)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbexp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, a := range experiments.Artifacts {
			run(a.Name, a.Run)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		if name == "sampled" {
			run(name, sampled)
			continue
		}
		a, ok := experiments.ArtifactByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "rbexp: unknown artifact %q\n", name)
			os.Exit(2)
		}
		run(a.Name, a.Run)
	}
}
