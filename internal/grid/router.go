package grid

// The Router is the coordinator's brain: a shared result-cache tier (the
// same sharded cost-bounded LRU the workers run per-process, keyed by the
// same cell keys, so a cell computed on any worker is never recomputed
// anywhere), rendezvous routing with per-worker circuit breakers, and
// failover down each cell's preference list. It implements
// experiments.Runner, so every figure and table of the paper runs
// distributed without touching the experiment code.
//
// PR 10 makes the worker set dynamic (a registry with heartbeat-driven
// health, seeded by the static -workers list) and adds hedging: once a cell
// has been in flight longer than the grid's p99 cell latency, the router
// races one extra attempt on the next worker in the cell's failover chain,
// first result wins and the loser is canceled. Hedge launches respect a
// per-worker in-flight cap so a slow grid never turns into a stampeded one.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/rcache"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options sizes a Router.
type Options struct {
	// Workers are the seed transports (the static -workers list). A router
	// needs either at least one seed or a NewTransport factory so workers
	// can join by registration.
	Workers []Transport
	// MaxInflight caps concurrently routed cells; 0 means 4 per seed worker
	// (minimum 8). This is the coordinator's only execution bound: workers
	// bound their own CPU with their pools and admission control.
	MaxInflight int

	// NewTransport builds the transport for a worker that joins via
	// /v1/register (its registered base URL is the argument). nil means a
	// default retrying HTTP transport; tests inject fakes here.
	NewTransport func(base string) Transport
	// HeartbeatInterval is the beat period workers are told to use; a
	// worker silent for 3 intervals is suspect and for 10 is dead. 0 means
	// DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration

	// HedgeMinDelay floors the hedge trigger delay (the p99 estimate of a
	// freshly started grid is noise); 0 means 25ms, negative disables
	// hedging entirely.
	HedgeMinDelay time.Duration
	// HedgeMinObservations gates hedging until the latency sketch has seen
	// that many cells; 0 means 16, negative means no gate (the chaos
	// campaign hedges from the first cell).
	HedgeMinObservations int
	// HedgeInflightCap skips hedge candidates already running this many
	// cells; 0 means 4.
	HedgeInflightCap int64

	// Breaker parameters (zero values take the server's defaults: a window
	// of 32 outcomes, 0.5 threshold, 8 minimum samples, 5s cooldown).
	BreakerWindow     int
	BreakerThreshold  float64
	BreakerMinSamples int
	BreakerCooldown   time.Duration
}

// sharedCacheCells bounds the shared result tier (unit cost per cell).
const sharedCacheCells = 1 << 16

// Router routes cells across the live worker set. Create with NewRouter.
type Router struct {
	reg   *registry
	cache *rcache.Cache // shared result tier, unit cost per cell
	sem   chan struct{}
	lat   *stats.LatencySketch // successful cell latency, seconds

	hedgeMinDelay time.Duration // negative: hedging disabled
	hedgeMinObs   int
	hedgeCap      int64

	hedges    atomic.Int64 // hedge attempts launched
	hedgeWins atomic.Int64 // cells won by the hedge attempt
}

// NewRouter builds a router over the given seed workers.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Workers) == 0 && opts.NewTransport == nil {
		return nil, fmt.Errorf("grid: router needs at least one worker or registration enabled")
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * len(opts.Workers)
		if opts.MaxInflight < 8 {
			opts.MaxInflight = 8
		}
	}
	if opts.BreakerWindow <= 0 {
		opts.BreakerWindow = 32
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 0.5
	}
	if opts.BreakerMinSamples <= 0 {
		opts.BreakerMinSamples = 8
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.HedgeMinDelay == 0 {
		opts.HedgeMinDelay = 25 * time.Millisecond
	}
	if opts.HedgeMinObservations == 0 {
		opts.HedgeMinObservations = 16
	}
	if opts.HedgeInflightCap <= 0 {
		opts.HedgeInflightCap = 4
	}
	newBreaker := func() *Breaker {
		return NewBreaker(opts.BreakerWindow, opts.BreakerThreshold,
			opts.BreakerMinSamples, opts.BreakerCooldown)
	}
	r := &Router{
		reg:           newRegistry(opts.HeartbeatInterval, opts.NewTransport, newBreaker),
		cache:         rcache.New(16, sharedCacheCells),
		sem:           make(chan struct{}, opts.MaxInflight),
		lat:           stats.NewDefaultLatencySketch(),
		hedgeMinDelay: opts.HedgeMinDelay,
		hedgeMinObs:   opts.HedgeMinObservations,
		hedgeCap:      opts.HedgeInflightCap,
	}
	for _, t := range opts.Workers {
		if err := r.reg.addSeed(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Heartbeat admits or refreshes a worker (the /v1/register handler). It
// reports whether the worker newly joined or rejoined. Registration is
// rejected when the router was built without a transport factory.
func (r *Router) Heartbeat(name string, now time.Time) (joined bool, err error) {
	return r.reg.heartbeat(name, now)
}

// Sweep advances the health state machine to now (the server's background
// sweeper calls this every heartbeat interval) and reports transitions.
func (r *Router) Sweep(now time.Time) int { return r.reg.sweep(now) }

// HeartbeatInterval is the beat period the coordinator expects of workers.
func (r *Router) HeartbeatInterval() time.Duration { return r.reg.interval }

// Seed installs an already-computed cell result into the shared tier — the
// journal-resume path: replayed cells become cache hits, so re-running a
// resumed batch re-dispatches only the missing cells.
func (r *Router) Seed(res *CellResult) {
	if res == nil || res.Key == "" {
		return
	}
	experiments.SeedCell(r.cache, res.Key, res)
}

// Do computes one cell through the shared tier: a cache hit (or a join on a
// concurrent miss) returns without touching any worker; a miss routes the
// cell down its rendezvous preference list. Errors are never cached, so a
// cell that failed during an outage recomputes cleanly later. A hit cached
// for a different config under the same key is refused with ErrBadCell.
func (r *Router) Do(ctx context.Context, req *CellRequest) (*CellResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	v, err := experiments.CachedCell(ctx, r.cache, req.Key(), &req.Config, func() (any, error) {
		select {
		case r.sem <- struct{}{}:
			defer func() { <-r.sem }()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return r.route(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*CellResult), nil
}

// hedgeDelay decides the straggler threshold for one cell: the grid's p99
// successful-cell latency, floored by HedgeMinDelay. Zero means "do not
// hedge this cell" (hedging disabled, or the sketch is too young to trust).
func (r *Router) hedgeDelay() time.Duration {
	if r.hedgeMinDelay < 0 {
		return 0
	}
	if r.hedgeMinObs >= 0 && r.lat.Count() < uint64(r.hedgeMinObs) {
		return 0
	}
	d := time.Duration(r.lat.Quantile(0.99) * float64(time.Second))
	if d < r.hedgeMinDelay {
		d = r.hedgeMinDelay
	}
	return d
}

// attemptResult is one worker attempt's outcome.
type attemptResult struct {
	w     *worker
	res   *CellResult
	err   error
	hedge bool
}

// route runs one cell over the live worker set: the rendezvous-ranked chain
// is tried in order, hedging a straggling attempt onto the next eligible
// worker after hedgeDelay, first result wins. Worker outcomes feed the
// breakers; a canceled attempt (client disconnect or a lost hedge race)
// says nothing about the worker and is not recorded against it.
func (r *Router) route(ctx context.Context, req *CellRequest) (*CellResult, error) {
	names, workers := r.reg.live()
	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no live workers", ErrNoWorkers)
	}
	chain := make([]*worker, 0, len(names))
	for _, idx := range rendezvousRank(req.Key(), names) {
		chain = append(chain, workers[idx])
	}

	results := make(chan attemptResult, len(chain))
	attempted := make([]bool, len(chain))
	cancels := make([]context.CancelFunc, 0, 2)
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	outstanding := 0

	// launch starts the next eligible attempt: the first unattempted worker
	// in chain order whose breaker admits. A hedge launch additionally skips
	// (without consuming) workers at the in-flight cap, and must win a
	// router in-flight slot without blocking — so hedges add load only
	// where there is headroom, and the semaphore stays the grid's total
	// load bound (a saturated grid sheds hedges, never amplifies).
	launch := func(hedge bool) bool {
		if hedge {
			select {
			case r.sem <- struct{}{}:
			default:
				return false // grid already at its in-flight bound
			}
		}
		launched := false
		defer func() {
			if hedge && !launched {
				<-r.sem
			}
		}()
		for i, w := range chain {
			if attempted[i] {
				continue
			}
			if hedge && w.inflight.Load() >= r.hedgeCap {
				continue
			}
			allowed, probe := w.brk.Admit(time.Now()) //rblint:allow determinism
			if !allowed {
				attempted[i] = true // shed: out of this cell's chain
				continue
			}
			attempted[i] = true
			w.routed.Add(1)
			w.inflight.Add(1)
			if hedge {
				w.hedges.Add(1)
			}
			actx, acancel := context.WithCancel(ctx)
			cancels = append(cancels, acancel)
			outstanding++
			launched = true
			go func(w *worker, probe, hedge bool) {
				start := time.Now() //rblint:allow determinism
				res, err := w.transport.RunCell(actx, req)
				if hedge {
					<-r.sem
				}
				w.inflight.Add(-1)
				now := time.Now() //rblint:allow determinism
				switch {
				case err == nil:
					w.brk.Record(false, probe, now)
					r.lat.Observe(now.Sub(start).Seconds())
				case errors.Is(err, ErrBadCell):
					// The worker answered; the request is at fault.
					w.brk.Record(false, probe, now)
				case actx.Err() != nil:
					// Canceled, not failed: the client went away or this
					// attempt lost the hedge race.
					w.brk.Cancel(probe)
				default:
					w.failed.Add(1)
					w.brk.Record(true, probe, now)
				}
				results <- attemptResult{w: w, res: res, err: err, hedge: hedge}
			}(w, probe, hedge)
			return true
		}
		return false
	}

	if !launch(false) {
		return nil, fmt.Errorf("%w: every breaker is open", ErrNoWorkers)
	}
	var hedgeC <-chan time.Time
	if d := r.hedgeDelay(); d > 0 {
		t := time.NewTimer(d) //rblint:allow determinism
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for outstanding > 0 {
		select {
		case ar := <-results:
			outstanding--
			switch {
			case ar.err == nil:
				if ar.hedge {
					r.hedgeWins.Add(1)
					ar.w.hedgeWon.Add(1)
				}
				return ar.res, nil
			case errors.Is(ar.err, ErrBadCell):
				return nil, ar.err
			case ctx.Err() != nil:
				return nil, ctx.Err()
			default:
				lastErr = ar.err
				if outstanding == 0 {
					launch(false) // sequential failover
				}
			}
		case <-hedgeC:
			hedgeC = nil // at most one hedge per cell
			if launch(true) {
				r.hedges.Add(1)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: every worker failed, last: %v", ErrNoWorkers, lastErr)
	}
	return nil, fmt.Errorf("%w: every breaker is open", ErrNoWorkers)
}

// RunCell implements experiments.Runner: one full-run cell through the
// grid.
func (r *Router) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	res, err := r.Do(ctx, &CellRequest{Config: cfg, Workload: w.Name})
	if err != nil {
		return nil, err
	}
	if res.Result == nil {
		return nil, fmt.Errorf("grid: cell %s returned no full result", res.Key)
	}
	return res.Result, nil
}

// RunMatrix implements experiments.Runner: the full (config, workload)
// product fans out concurrently; the router's in-flight semaphore is the
// only bound the coordinator needs (workers bound their own CPU).
func (r *Router) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	return experiments.Matrix(ctx, cfgs, wls, experiments.Spawn, r.RunCell)
}

// WorkerSnapshot is one worker's health for /metrics.
type WorkerSnapshot struct {
	Name           string  `json:"name"`
	Health         string  `json:"health"` // alive, suspect, or dead
	Seed           bool    `json:"seed"`
	Beats          int64   `json:"beats"`
	BeatAgeSeconds float64 `json:"beat_age_seconds,omitempty"`
	Breaker        string  `json:"breaker"` // closed, open, or half-open
	Trips          int64   `json:"trips"`
	Shed           int64   `json:"shed"`
	Inflight       int64   `json:"inflight"`
	Routed         int64   `json:"routed"`
	Failed         int64   `json:"failed"`
	Hedges         int64   `json:"hedges,omitempty"`
	HedgeWins      int64   `json:"hedge_wins,omitempty"`
}

// RouterStats aggregates the registry and hedging counters for /metrics.
type RouterStats struct {
	Registry  RegistryStats `json:"registry"`
	Hedges    int64         `json:"hedges"`
	HedgeWins int64         `json:"hedge_wins"`
}

// Snapshot returns per-worker health and the shared-tier cache counters.
func (r *Router) Snapshot() ([]WorkerSnapshot, rcache.Stats) {
	out, _ := r.reg.snapshot(time.Now()) //rblint:allow determinism
	return out, r.cache.Stats()
}

// Stats returns the registry and hedge counters.
func (r *Router) Stats() RouterStats {
	_, reg := r.reg.snapshot(time.Now()) //rblint:allow determinism
	return RouterStats{
		Registry:  reg,
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
	}
}

// TeeRunner wraps a Runner and reports each distinct cell result once, by
// its cell key, as it lands — the /v1/batch streaming and journaling hook.
// OnCell may be called from many goroutines; the tee serializes the calls.
type TeeRunner struct {
	R      experiments.Runner
	OnCell func(res *CellResult)

	mu   sync.Mutex
	seen map[string]bool
}

// RunCell implements experiments.Runner.
func (t *TeeRunner) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	res, err := t.R.RunCell(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	key := experiments.CellKey(&cfg, w.Name, nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen == nil {
		t.seen = make(map[string]bool)
	}
	if !t.seen[key] {
		t.seen[key] = true
		if t.OnCell != nil {
			t.OnCell(&CellResult{Key: key, Result: res})
		}
	}
	return res, nil
}

// RunMatrix implements experiments.Runner by fanning the product through
// RunCell so every cell is observed; concurrency is bounded by the
// underlying runner's RunCell (the router's semaphore, or a pool that
// RunCell submits to — a bare Harness.RunCell runs unbounded).
func (t *TeeRunner) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	return experiments.Matrix(ctx, cfgs, wls, experiments.Spawn, t.RunCell)
}
