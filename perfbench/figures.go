package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/prof"
	"repro/internal/workload"
)

// renderFigure regenerates one figure through run and returns exactly the
// text `rbexp -exp <name>` prints for it.
func renderFigure(ctx context.Context, run experiments.Runner, name string) ([]byte, error) {
	var (
		fig interface{ Render(io.Writer) error }
		err error
	)
	switch name {
	case "fig9":
		fig, err = experiments.Figure9(ctx, run)
	case "fig11":
		fig, err = experiments.Figure11(ctx, run)
	case "fig13":
		fig, err = experiments.Figure13(ctx, run)
	case "fig14":
		fig, err = experiments.Figure14(ctx, run)
	default:
		return nil, fmt.Errorf("unknown figure %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var b bytes.Buffer
	if err := fig.Render(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b.WriteByte('\n') // rbexp ends every artifact with a blank line
	return b.Bytes(), nil
}

// checkFigure compares a rendered figure with its oracle digest.
func checkFigure(cfg config, name string, text []byte, err error) error {
	if err != nil {
		return err
	}
	if got := digestOf(text); got != cfg.digests[name] {
		return fmt.Errorf("%s: output digest %.12s, oracle %.12s", name, got, cfg.digests[name])
	}
	return nil
}

// buildTraces assembles and traces every workload. keep builds them into
// the workload package's caches, which the simulations read; otherwise the
// same work runs on private copies that are dropped.
func buildTraces(wls []*workload.Workload, keep bool) error {
	for _, w := range wls {
		if keep {
			if _, err := w.Trace(); err != nil {
				return err
			}
			continue
		}
		prog, err := asm.Assemble(w.Source)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		if _, err := emu.Trace(prog, w.MaxInsts); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// runFigures is the figures workload: each repetition regenerates the
// figures, in a seeded order, on a fresh harness with a GOMAXPROCS-sized
// pool (the rbexp default), then re-requests them from the warm harness.
func runFigures(ctx context.Context, r *run) error {
	cfg := r.cfg
	setup, err := r.timeSetups(cfg.size.setups, func(i int) error {
		return buildTraces(workload.All(), i == 0)
	})
	if err != nil {
		return err
	}
	r.metrics["workload.trace_s"] = setup // this set-up is trace building alone

	order := append([]string(nil), cfg.size.figures...)
	seeded(cfg.seed).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// figure renders and checks order[i] through run, and returns its time.
	figure := func(run experiments.Runner, i int) time.Duration {
		start := time.Now()
		text, err := renderFigure(ctx, run, order[i])
		d := time.Since(start)
		err = checkFigure(cfg, order[i], text, err)
		r.check(err == nil, "cold %v", err)
		return d
	}
	regen := func(run experiments.Runner) time.Duration {
		var d time.Duration
		for i := range order {
			d += figure(run, i)
		}
		return d
	}
	if cfg.traced {
		return tracedFigures(r, regen)
	}

	clients := runtime.GOMAXPROCS(0)
	var warm warmStats
	err = r.loop(cfg.budget, func() error {
		h := experiments.NewHarness(0)
		defer h.Close()
		// Each figure is timed on its own, between speed measurements; they
		// share the harness, so a later figure reuses the cells of an earlier.
		wall, _ := r.cold(len(order), func(i int) (time.Duration, error) { return figure(h, i), nil })
		cells := h.Runs()
		r.count("cells", cells)
		r.settle()
		warm.burst(r, clients, r.warmFor(wall), func(i int) error {
			name := order[i%len(order)]
			text, err := renderFigure(ctx, h, name)
			return checkFigure(cfg, name, text, err)
		})
		r.check(h.Runs() == cells, "warm requests simulated %d cells again", h.Runs()-cells)
		if _, seen := r.work["insts"]; !seen {
			tally := newCellRunner(h, nil)
			for _, name := range order {
				if _, err := renderFigure(ctx, tally, name); err != nil {
					return err
				}
			}
			r.count("insts", tally.insts)
			r.count("cycles", tally.cycles)
		}
		return nil
	})
	if err != nil {
		return err
	}
	warm.report(r)
	return nil
}

// tracedFigures alternates a plain regeneration with one through a
// cellRunner, and reports the core, pool and experiments layers and the CPU
// profile of the first traced regeneration.
func tracedFigures(r *run, regen func(experiments.Runner) time.Duration) error {
	var (
		plain, traced []float64
		shares        map[string]share
	)
	err := r.loop(r.cfg.budget/2, func() error {
		h := experiments.NewHarness(0)
		plain = append(plain, regen(h).Seconds())
		h.Close()

		serial := experiments.NewHarness(1)
		p := pool.New(runtime.GOMAXPROCS(0), 0)
		cr := newCellRunner(serial, p)
		var (
			profPath string
			stopProf func()
		)
		if shares == nil {
			f, err := os.CreateTemp(buildDir(), "cpu-*.pprof")
			if err != nil {
				return err
			}
			profPath = f.Name()
			f.Close()
			defer os.Remove(profPath)
			if stopProf, err = prof.Start(profPath, "", ""); err != nil {
				return err
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall := regen(cr)
		runtime.ReadMemStats(&after)
		if stopProf != nil {
			stopProf()
		}
		p.Close()
		traced = append(traced, wall.Seconds())
		if profPath != "" {
			var err error
			if shares, err = cpuShares(profPath); err != nil {
				return err
			}
		}

		var cellTotal float64
		for _, v := range cr.cellMs {
			cellTotal += v
		}
		m := r.metrics
		m["core.cell_ms.p50"] = quantile(cr.cellMs, 0.5)
		m["core.cell_ms.p99"] = quantile(cr.cellMs, 0.99)
		m["core.ns_per_inst"] = cellTotal * 1e6 / float64(cr.insts)
		m["core.alloc_kb_per_cell"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(cr.cellMs))
		m["core.cells"] = float64(serial.Runs())
		m["core.insts"] = float64(cr.insts)
		m["core.cycles"] = float64(cr.cycles)
		m["pool.wait_ms.p50"] = quantile(cr.waitMs, 0.5)
		m["pool.busy_ratio"] = cr.busy.Seconds() / (wall.Seconds() * float64(p.Workers()))
		m["experiments.cache_hit_ratio"] = 1 - float64(serial.Runs())/float64(cr.requested)
		r.count("cells", serial.Runs())
		r.count("insts", cr.insts)
		r.count("cycles", cr.cycles)
		return nil
	})
	if err != nil {
		return err
	}
	for name, v := range coreShares(shares) {
		r.metrics[name] = v
	}
	r.metrics["bench.trace_overhead_pct"] = 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
	r.add("repetitions", int64(len(plain)+len(traced)))
	return nil
}

// buildDir is where a run leaves scratch files: the checkout's build
// directory, which version control ignores.
func buildDir() string {
	dir, err := filepath.Abs(".bench_build")
	if err != nil || os.MkdirAll(dir, 0o755) != nil {
		return os.TempDir()
	}
	return dir
}

// cellRunner is the benchmark's experiments.Runner for instrumented runs:
// RunMatrix fans the cells out over a pool.Pool (inline when the pool is
// nil) into a Harness, and every cell is timed from outside. The first
// request for a cell is a harness miss, one core.Buffers.Run; a repeat is
// a hit.
type cellRunner struct {
	h    *experiments.Harness
	pool *pool.Pool

	mu            sync.Mutex
	seen          map[string]bool
	requested     int64
	cellMs        []float64 // each distinct cell's simulation
	waitMs        []float64 // from Submit to the task starting
	busy          time.Duration
	insts, cycles int64 // over distinct cells
}

func newCellRunner(h *experiments.Harness, p *pool.Pool) *cellRunner {
	return &cellRunner{h: h, pool: p, seen: map[string]bool{}}
}

// RunCell implements experiments.Runner.
func (c *cellRunner) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	key := cfg.Name + "|" + w.Name
	c.mu.Lock()
	first := !c.seen[key]
	c.seen[key] = true
	c.requested++
	c.mu.Unlock()
	start := time.Now()
	res, err := c.h.RunCell(ctx, cfg, w)
	d := time.Since(start)
	if err != nil || !first {
		return res, err
	}
	c.mu.Lock()
	c.cellMs = append(c.cellMs, ms(d))
	c.insts += res.Instructions
	c.cycles += res.Cycles
	c.mu.Unlock()
	return res, nil
}

// RunMatrix implements experiments.Runner.
func (c *cellRunner) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	out := make(map[string]map[string]*core.Result, len(cfgs))
	for _, cfg := range cfgs {
		out[cfg.Name] = make(map[string]*core.Result, len(wls))
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
submit:
	for _, cfg := range cfgs {
		for _, w := range wls {
			cfg, w := cfg, w
			queued := time.Now()
			task := func() {
				defer wg.Done()
				start := time.Now()
				res, err := c.RunCell(ctx, cfg, w)
				busy := time.Since(start)
				c.mu.Lock()
				c.waitMs = append(c.waitMs, ms(start.Sub(queued)))
				c.busy += busy
				c.mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				out[cfg.Name][w.Name] = res
				mu.Unlock()
			}
			wg.Add(1)
			if c.pool == nil {
				task()
				continue
			}
			if err := c.pool.Submit(ctx, task); err != nil {
				wg.Done()
				fail(err)
				break submit
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// share is one function's share of a CPU profile, in percent.
type share struct{ flat, cum float64 }

// cpuShares reduces a CPU profile with `go tool pprof -top` to each
// function's flat and cumulative share.
func cpuShares(path string) (map[string]share, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]share{}
	for _, line := range strings.Split(string(out), "\n") {
		// flat  flat%  sum%  cum  cum%  name [(inline)]
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		shares[f[5]] = share{flat: flat, cum: cum}
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	return shares, nil
}

// coreShares maps a profile onto the per-layer CPU metrics: cumulative
// shares of the simulator's stages, flat shares summed per package, and
// the runtime's copying and collection.
func coreShares(shares map[string]share) map[string]float64 {
	const sim = "repro/internal/core."
	cum := func(names ...string) (v float64) {
		for _, n := range names {
			v += shares[n].cum
		}
		return v
	}
	flatIn := func(prefix string) (v float64) {
		for n, s := range shares {
			if strings.HasPrefix(n, prefix) {
				v += s.flat
			}
		}
		return v
	}
	return map[string]float64{
		"core.issue.cpu_pct":    cum(sim + "(*Simulator).issueEvent"),
		"core.execute.cpu_pct":  cum(sim + "(*Simulator).execute"),
		"core.dispatch.cpu_pct": cum(sim + "(*Simulator).dispatch"),
		"core.deps.cpu_pct":     cum(sim + "(*Simulator).buildDependences"),
		"core.fetch.cpu_pct":    cum(sim + "(*Simulator).fetch"),
		"core.newsim.cpu_pct":   cum(sim + "newSim"),
		"sched.cpu_pct":         flatIn("repro/internal/sched."),
		"mem.cpu_pct":           flatIn("repro/internal/mem."),
		"branch.cpu_pct":        flatIn("repro/internal/branch."),
		"runtime.copy.cpu_pct":  shares["runtime.duffcopy"].flat + shares["runtime.memmove"].flat,
		"runtime.gc.cpu_pct":    cum("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"),
	}
}
