package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// maxIPCErrPct bounds the sampled estimate's error against the full-detail
// run of the same program. Both are deterministic, so for a given seed the
// gate always passes or always fails; over seeds 11-110 the error ranged
// from 0.02% to 3.7%, so the gate catches a broken sampler, not a seed.
const maxIPCErrPct = 8.0

// runSampled is the sampled workload: each repetition takes a cold SMARTS
// estimate on a fresh harness with a GOMAXPROCS-sized pool, then
// re-requests it from the warm harness. The seed selects the generated
// program's input data.
func runSampled(ctx context.Context, r *run) error {
	cfg := r.cfg
	mach := machine.NewRBFull(8)
	params := workload.GenParams{
		Name:               fmt.Sprintf("perfbench-%d-%d", cfg.size.genIters, cfg.seed),
		Iterations:         cfg.size.genIters,
		BranchTakenPercent: 85,
		MulOps:             1,
		Seed:               cfg.seed,
	}
	var (
		w      *workload.Workload
		oracle *core.Result
	)
	_, err := r.timeSetups(cfg.size.setups, func(i int) error {
		gw, err := workload.Generate(params)
		if err != nil {
			return err
		}
		assemble := gw.Program // cached: the sampler reads this program
		if i > 0 {
			assemble = func() (*isa.Program, error) { return asm.Assemble(gw.Source) }
		}
		prog, err := assemble()
		if err != nil {
			return err
		}
		// The oracle traces outside the workload cache, so its millions of
		// entries do not outlive the set-up.
		trace, err := emu.Trace(prog, gw.MaxInsts)
		if err != nil {
			return err
		}
		res, err := core.NewBuffers().Run(mach, gw.Name, trace)
		if err != nil {
			return err
		}
		if i == 0 {
			w, oracle = gw, res
		} else if res.Cycles != oracle.Cycles || res.Instructions != oracle.Instructions {
			return errors.New("the full-detail oracle differs between set-ups")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.count("program_insts", oracle.Instructions)
	r.count("oracle_cycles", oracle.Cycles)

	spec := cfg.size.spec
	var first *experiments.SampledResult
	// estimate takes one estimate on h and returns its time. An estimate of
	// the benchmark's spec must match the first one exactly, and the first
	// must be within maxIPCErrPct of the oracle.
	estimate := func(h *experiments.Harness, s sampleSpec) time.Duration {
		start := time.Now()
		res, err := h.RunSampled(ctx, mach, w, s)
		d := time.Since(start)
		if !r.check(err == nil, "sampled estimate: %v", err) || s != spec {
			return d
		}
		if first == nil {
			first = res
			errPct := 100 * math.Abs(res.MeanIPC-oracle.IPC()) / oracle.IPC()
			r.metrics["sampled.ipc_err_pct"] = errPct
			r.check(errPct < maxIPCErrPct, "sampled IPC %.4f is %.2f%% off the full run's %.4f", res.MeanIPC, errPct, oracle.IPC())
		} else {
			r.check(reflect.DeepEqual(res, first), "estimate differs from the first repetition's")
		}
		r.count("detailed_insts", res.MeasuredInstructions)
		return d
	}
	if cfg.traced {
		return tracedSampled(r, mach, w, estimate)
	}

	clients := runtime.GOMAXPROCS(0)
	var warm warmStats
	err = r.loop(cfg.budget, func() error {
		h := experiments.NewHarness(0)
		defer h.Close()
		cold, _ := r.cold(1, func(int) (time.Duration, error) { return estimate(h, spec), nil })
		cells := h.Runs()
		r.count("cells", cells)
		r.settle()
		warm.burst(r, clients, r.warmFor(cold), func(int) error {
			res, err := h.RunSampled(ctx, mach, w, spec)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(res, first) {
				return errors.New("warm estimate differs from the cold one")
			}
			return nil
		})
		r.check(h.Runs() == cells, "warm requests simulated %d cells again", h.Runs()-cells)
		return nil
	})
	if err != nil {
		return err
	}
	warm.report(r)
	return nil
}

// tracedSampled alternates a plain cold estimate with a cold estimate
// followed by a second spec on the same harness, which reuses the
// checkpoint library and recomputes every cell: the second estimate's time
// is the cells' part of a cold estimate, the rest is the library's. It then
// times functional emulation and functional warming alone over the program.
func tracedSampled(r *run, mach machine.Config, w *workload.Workload, estimate func(*experiments.Harness, sampleSpec) time.Duration) error {
	spec := r.cfg.size.spec
	other := spec
	other.Measure-- // new cell keys over the same library
	var plain, traced, library, cells []float64
	err := r.loop(r.cfg.budget/2, func() error {
		h := experiments.NewHarness(0)
		plain = append(plain, estimate(h, spec).Seconds())
		h.Close()

		h = experiments.NewHarness(0)
		defer h.Close()
		cold := estimate(h, spec)
		runs := h.Runs()
		r.count("cells", runs)
		again := estimate(h, other)
		r.count("second_spec_cells", h.Runs()-runs)
		traced = append(traced, cold.Seconds())
		cells = append(cells, again.Seconds())
		library = append(library, (cold - again).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	prog, err := w.Program()
	if err != nil {
		return err
	}
	emuRate, err := medianRate(3, func() (int64, error) {
		return emu.New(prog).Run(w.MaxInsts, nil)
	})
	if err != nil {
		return err
	}
	warmRate, err := medianRate(3, func() (int64, error) {
		hier, err := mem.NewHierarchy(mach.Mem)
		if err != nil {
			return 0, err
		}
		warmer := ckpt.NewWarmer(hier, branch.New())
		e := emu.New(prog)
		var te emu.TraceEntry
		for !e.Halted() {
			if err := e.StepInto(&te); err != nil {
				return 0, err
			}
			warmer.Observe(&te)
		}
		return e.InstCount(), nil
	})
	if err != nil {
		return err
	}
	m := r.metrics
	m["emu.minst_per_s"] = emuRate
	m["ckpt.warm_minst_per_s"] = warmRate
	m["sampled.library_s"] = quantile(library, 0.5)
	m["sampled.cells_s"] = quantile(cells, 0.5)
	m["sampled.cells"] = float64(r.work["cells"])
	m["sampled.detailed_insts"] = float64(r.work["detailed_insts"])
	m["bench.trace_overhead_pct"] = 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
	r.add("repetitions", int64(len(plain)+len(traced)))
	return nil
}

// medianRate runs fn n times and returns the median rate, in millions of
// instructions per second, of the instruction counts it returns.
func medianRate(n int, fn func() (int64, error)) (float64, error) {
	var rates []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		insts, err := fn()
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(insts)/time.Since(start).Seconds()/1e6)
	}
	return quantile(rates, 0.5), nil
}
