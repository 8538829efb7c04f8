package experiments

// The one cell path. Every figure is a grid of independent deterministic
// (machine, workload) cells, and every layer that names, caches, or fans out
// cells — this harness and its sampler, the grid router and its batch tees,
// the server's journals — does it through the functions below, so serial,
// pooled, and distributed runs cannot drift apart. A cell a runner already
// holds is answered on the caller's goroutine (CachedHit, Matrix's lookup):
// only misses, and joins on a computation already in flight, are handed to
// a pool or a goroutine.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rcache"
	"repro/internal/workload"
)

// ErrBadCell marks a permanently invalid cell: its parameters are wrong, so
// retrying it (on this or any other grid worker) cannot help. It maps to
// HTTP 400; internal/grid re-exports it as grid.ErrBadCell.
var ErrBadCell = errors.New("grid: bad cell request")

// CellKey is a cell's identity, "machine|workload|width|bypass|spec", where
// spec is "full" for a full run or "sampled/k/warmup/measure/ffwarm" for a
// SMARTS estimate. Rendezvous routing, the grid's shared tier, batch tees
// and journals, and the harness cell cache all key cells by it. The key
// names the machine but does not fingerprint it: CachedCell keeps the full
// config beside each value and refuses a second config under one key.
func CellKey(cfg *machine.Config, workload string, spec *SampleSpec) string {
	if spec == nil {
		return cellKey(cfg, workload, "full")
	}
	return cellKey(cfg, workload, fmt.Sprintf("sampled/%d/%d/%d/%d",
		spec.Samples, spec.Warmup, spec.Measure, spec.FFWarm))
}

// cellKey joins the key fields in one allocation; the sampler's window keys
// pass their own spec field.
func cellKey(cfg *machine.Config, workload, spec string) string {
	return cfg.Name + "|" + workload + keyTail(cfg, spec)
}

// keyTail is the part of cfg's keys after the workload name, "|width|bypass|
// spec": a matrix row or a sampled estimate builds it once for all its cells.
func keyTail(cfg *machine.Config, spec string) string {
	return "|" + strconv.Itoa(cfg.Width) + "|" + cfg.IdealBypass.String() + "|" + spec
}

// cellEntry is a cached cell value beside the config that computed it. A
// journal-replayed cell has no config (known is false): the journal records
// only keys, which this grid's own spec expansion produced.
type cellEntry struct {
	cfg   machine.Config
	known bool
	val   any
}

// CachedCell memoizes compute in c under key, keeping a copy of *cfg beside
// the value. A hit stored by a different config is refused with ErrBadCell
// rather than answered for the other config: one name identifies one config
// in a process. The check is a struct == (about 25 ns); a JSON or
// reflection digest of the config would cost microseconds on every warm
// lookup. Configs travel by pointer here and in CellKey because matrix
// fan-outs run each cell on a fresh goroutine, whose small initial stack
// would otherwise grow on every warm hit.
func CachedCell(ctx context.Context, c *rcache.Cache, key string, cfg *machine.Config, compute func() (any, error)) (any, error) {
	v, _, err := c.Do(ctx, key, func() (any, int64, error) {
		val, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return &cellEntry{cfg: *cfg, known: true, val: val}, 1, nil
	})
	if err != nil {
		return nil, err
	}
	return entryValue(v, key, cfg)
}

// CachedHit is CachedCell's hit alone: the value ready under key, read on
// the caller's goroutine with no compute and no wait. ok is false on a miss
// and on a computation still in flight; the caller sends those through
// CachedCell, which fills or joins. rcache counts the lookup once either
// way: a hit here under Get, a miss or join there under Do. seeded reports
// a value SeedCell installed: it carries no config, so the alias guard had
// nothing to compare cfg with, and a caller that checks a config before it
// computes must check cfg before it answers with such a value.
func CachedHit(c *rcache.Cache, key string, cfg *machine.Config) (val any, ok, seeded bool, err error) {
	v, ok := c.Get(key)
	if !ok {
		return nil, false, false, nil
	}
	val, err = entryValue(v, key, cfg)
	return val, true, !v.(*cellEntry).known, err
}

// entryValue unwraps a cached cellEntry through the alias guard.
func entryValue(v any, key string, cfg *machine.Config) (any, error) {
	e := v.(*cellEntry)
	if e.known && e.cfg != *cfg {
		return nil, fmt.Errorf("%w: cell %s is cached for a different %s config; give the variant its own name",
			ErrBadCell, key, cfg.Name)
	}
	return e.val, nil
}

// SeedCell installs a value computed elsewhere (a journal replay) under
// key; the replay carries no config, so any config may read it.
func SeedCell(c *rcache.Cache, key string, val any) {
	c.Do(context.Background(), key, func() (any, int64, error) {
		return &cellEntry{val: val}, 1, nil
	})
}

// FanOut runs fn(i) for every i in [0, n) and returns the first error. A
// nil submit runs the calls inline, in order, stopping at the first error —
// the serial determinism oracle. Otherwise each call is handed to submit (a
// pool's Submit, or Spawn for one goroutine each) and may run concurrently,
// so fn must write only its own slot; a failed submission stops further
// ones.
func FanOut(ctx context.Context, n int, submit func(context.Context, func()) error, fn func(i int) error) error {
	if submit == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
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
	for i := 0; i < n; i++ {
		wg.Add(1)
		err := submit(ctx, func() {
			defer wg.Done()
			if err := fn(i); err != nil {
				fail(err)
			}
		})
		if err != nil {
			wg.Done()
			fail(err)
			break
		}
	}
	wg.Wait()
	return firstErr
}

// Spawn is the FanOut submit for callers that bound concurrency themselves
// (the grid router's in-flight semaphore): one goroutine per call.
func Spawn(_ context.Context, f func()) error {
	go f()
	return nil
}

// Lookup answers a full-run cell that a runner already holds, on the
// caller's goroutine, without computing it or waiting for it: ok is false
// on a miss and on a computation still in flight. key is CellKey(cfg,
// w.Name, nil), built by the caller. An error (ok is true) fails the
// matrix, as the cell's computation would have.
type Lookup func(key string, cfg *machine.Config, w *workload.Workload) (res *core.Result, ok bool, err error)

// Matrix is every Runner's RunMatrix: it runs run over the (config,
// workload) product and returns the results indexed by config name then
// workload name. It first looks every cell up on the calling goroutine and
// fans only the misses out through FanOut, so a warm matrix never reaches
// submit: the harness looks in its cell cache, the router in its shared
// tier, and the batch tee in the runner it wraps, observing each hit
// before the misses fan out. A nil lookup fans every cell out.
func Matrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload, lookup Lookup,
	submit func(context.Context, func()) error,
	run func(context.Context, machine.Config, *workload.Workload) (*core.Result, error),
) (map[string]map[string]*core.Result, error) {
	// A done context fails the matrix, as a pool's Submit or the inline
	// loop fails it, even when every cell is a hit.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]*core.Result, len(cfgs))
	for _, c := range cfgs {
		out[c.Name] = make(map[string]*core.Result, len(wls))
	}
	miss := make([]int, 0, len(cfgs)*len(wls))
	for ci := range cfgs {
		c := &cfgs[ci]
		var tail string
		if lookup != nil {
			tail = keyTail(c, "full")
		}
		for wi, w := range wls {
			if lookup != nil {
				r, ok, err := lookup(c.Name+"|"+w.Name+tail, c, w)
				if err != nil {
					return nil, err
				}
				if ok {
					out[c.Name][w.Name] = r
					continue
				}
			}
			miss = append(miss, ci*len(wls)+wi)
		}
	}
	var mu sync.Mutex
	err := FanOut(ctx, len(miss), submit, func(j int) error {
		i := miss[j]
		c, w := &cfgs[i/len(wls)], wls[i%len(wls)]
		r, err := run(ctx, *c, w)
		if err != nil {
			return err
		}
		mu.Lock()
		out[c.Name][w.Name] = r
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
