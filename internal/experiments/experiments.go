// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the instruction-classification measurement (Table 1), the
// machine configuration and latency tables (Tables 2 and 3), the four IPC
// bar charts (Figures 9-12), the bypass-case distribution (Figure 13), and
// the limited-bypass harmonic-mean study (Figure 14), plus the headline
// percentage claims of §5.2. See DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured values.
//
// Every experiment entry point takes a context.Context and a Runner: the
// Runner decides how the (machine, workload) cells of the experiment grid
// are executed (serially, or fanned out over a bounded worker pool) and how
// results are cached, so the rbexp CLI and the rbserve HTTP service drive
// exactly the same code path. Simulations are deterministic, so the degree
// of parallelism never changes a result — only how fast it arrives. A cell
// simulation is not interruptible; cancellation is honored between cells.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/rcache"
	"repro/internal/workload"
)

// Runner executes the cells of an experiment grid.
type Runner interface {
	// RunCell simulates one (machine, workload) cell.
	RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error)
	// RunMatrix simulates every (config, workload) pair and returns results
	// indexed by config name then workload name.
	RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error)
}

// Harness is the standard Runner: a sharded singleflight LRU over
// simulation results (every run is deterministic, and the figures and the
// §5.2 summary reuse each other's cells) in front of an optional bounded
// worker pool. Concurrent misses on one cell coalesce into a single
// simulation; with no pool, cells run inline in submission order — the
// serial determinism oracle the -parallel flag exposes.
type Harness struct {
	// Backend is the scheduler backend of every cell and sampled window
	// (zero value: event). Set it before the first run.
	Backend core.Backend

	pool  *pool.Pool    // nil: run cells inline, serially
	cache *rcache.Cache // cell results, unit cost
	runs  atomic.Int64  // simulations actually executed (cache fills)
	bufs  sync.Pool     // *core.Buffers, one in flight per running cell
}

// getBuf takes a reusable simulator buffer set (never nil).
func (h *Harness) getBuf() *core.Buffers {
	if b, ok := h.bufs.Get().(*core.Buffers); ok {
		return b
	}
	return core.NewBuffers()
}

// putBuf returns a buffer set for reuse.
func (h *Harness) putBuf(b *core.Buffers) { h.bufs.Put(b) }

// NewHarness builds a private harness (its own cache) running up to
// parallel cells concurrently; parallel <= 1 selects the inline serial
// path, parallel == 0 defaults to GOMAXPROCS.
func NewHarness(parallel int) *Harness {
	if parallel == 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	h := &Harness{cache: rcache.New(8, 0)}
	if parallel > 1 {
		h.pool = pool.New(parallel, 0)
	}
	return h
}

// NewHarnessWith builds a harness over an existing pool and cache (the
// rbserve service shares one pool and one cell cache across requests).
// A nil pool means serial; a nil cache gets a private unbounded one.
func NewHarnessWith(p *pool.Pool, c *rcache.Cache) *Harness {
	if c == nil {
		c = rcache.New(8, 0)
	}
	return &Harness{pool: p, cache: c}
}

// defaultHarness serves the package's zero-configuration callers (tests,
// benchmarks): shared cache, GOMAXPROCS pool.
var (
	defaultHarness     *Harness
	defaultHarnessOnce sync.Once
)

// Default returns the process-wide shared harness.
func Default() *Harness {
	defaultHarnessOnce.Do(func() {
		defaultHarness = NewHarness(0)
	})
	return defaultHarness
}

// Close releases the harness's worker pool (shared pools passed to
// NewHarnessWith are the owner's to close).
func (h *Harness) Close() {
	if h.pool != nil {
		h.pool.Close()
	}
}

// Runs counts the simulations this harness actually executed (cache
// misses); tests use it to prove concurrent misses coalesce.
func (h *Harness) Runs() int64 { return h.runs.Load() }

// CacheStats exposes the cell cache counters (the server's /metrics).
func (h *Harness) CacheStats() rcache.Stats { return h.cache.Stats() }

// RunCell simulates one (machine, workload) cell, memoized under its
// CellKey: concurrent misses on the same cell block on the winner's
// simulation instead of duplicating it, and a second config under a cached
// cell's name is refused (ErrBadCell). Every cell of a workload reads its
// cached timing trace (workload.Decoded): a cell is a machine.Config, which
// arms no run mode that needs the full trace.
func (h *Harness) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := CachedCell(ctx, h.cache, CellKey(&cfg, w.Name, nil), &cfg, func() (any, error) {
		h.runs.Add(1)
		dec, err := w.Decoded()
		if err != nil {
			return nil, err
		}
		buf := h.getBuf()
		defer h.putBuf(buf)
		r, err := core.Run(cfg, w.Name, nil, core.Options{Backend: h.Backend, Decoded: dec, Buffers: buf})
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", w.Name, cfg.Name, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// RunMatrix simulates every (config, workload) pair — through the worker
// pool when the harness has one, inline otherwise — and returns results
// indexed by config name then workload name.
func (h *Harness) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	if h.pool != nil {
		// Build the workloads' timing traces serially: they are cached and
		// shared between cells, and building them here keeps the pool's
		// workers from waiting on one another's builds.
		for _, w := range wls {
			if _, err := w.Decoded(); err != nil {
				return nil, err
			}
		}
	}
	return Matrix(ctx, cfgs, wls, h.submit(), h.RunCell)
}

// submit is where the harness fans cells out: its pool, or nil (inline, in
// order) when it is serial.
func (h *Harness) submit() func(context.Context, func()) error {
	if h.pool == nil {
		return nil
	}
	return h.pool.Submit
}

func workloadNames(wls []*workload.Workload) []string {
	names := make([]string, len(wls))
	for i, w := range wls {
		names[i] = w.Name
	}
	sort.Strings(names)
	return names
}
