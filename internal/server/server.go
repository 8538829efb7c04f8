// Package server implements rbserve: the repository's engines — the
// experiment harness (paper §5 figures and tables), the cycle-level
// simulator, and the differential check suite — exposed as a concurrent
// HTTP service on the standard library only.
//
// Layering (DESIGN.md §11):
//
//	handlers     /v1/experiment/{...}, /v1/sim, /v1/check, /v1/workloads,
//	             /healthz, /metrics, /debug/pprof
//	caching      a sharded cost-bounded LRU over rendered responses
//	             (internal/rcache) in front of one cell tier: the
//	             experiment harness's sharded cell cache in a
//	             single-process or worker server, the grid router's shared
//	             tier in a coordinator; both dedup concurrent misses. The
//	             response cache stays because a warm fig9 text hit is
//	             about 10 µs p50 against about 0.5 ms to render it from
//	             warm cells
//	cells        one cell key (experiments.CellKey) for the harness, the
//	             coordinator's router, batch tees and journals; every cell
//	             cache keeps the full machine.Config beside its value and
//	             refuses a second config under one name with 400 (the
//	             alias guard); one fan-out loop (experiments.FanOut), one
//	             cell compute (grid.RunLocal) for /v1/cell and a
//	             non-coordinator's /v1/batch; one artifact table
//	             (experiments.Artifacts, plus the local "ipc") behind
//	             /v1/experiment, /v1/batch?artifact= and journal resume,
//	             one text render (experiments.RenderText) for every text
//	             response and journal output, and one batch routine: an
//	             axes sweep and an artifact alike become a grid.JournalMeta,
//	             newBatch builds the batch from it for the live handler
//	             (serveBatch: journal, stream, progress, done record and
//	             formats, once) and for journal resume
//	execution    one bounded worker pool (internal/pool, GOMAXPROCS-sized)
//	             that every simulation cell of a single-process or worker
//	             server funnels through — experiments, batches, /v1/cell
//	             and /v1/sim — shared with the experiments harness so HTTP
//	             traffic and rbexp-style matrix fan-out obey a single CPU
//	             bound; a coordinator routes its cells to workers instead
//	robustness   admission control (429 + Retry-After once MaxInflight
//	             requests are active), a circuit breaker (grid.Breaker)
//	             shedding load with 503 once the recent 5xx rate crosses a
//	             threshold,
//	             per-request deadlines, panic recovery into logged 500s,
//	             deterministic chaos injection for rbfault campaigns, and
//	             graceful drain in cmd/rbserve
//
// Simulations are deterministic functions of their parameters, which is
// what makes aggressive caching sound: a cached response is bit-identical
// to a fresh one, and rbserve's text rendering of an experiment is
// byte-identical to rbexp's for the same parameters (scripts/ci.sh gates
// on exactly that diff).
package server

import (
	"context"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/rcache"
	"repro/internal/workload"
)

// Config sizes the service.
type Config struct {
	// Parallel is the worker pool size bounding concurrent simulation
	// cells; 0 means GOMAXPROCS.
	Parallel int
	// MaxInflight caps concurrently admitted /v1 requests; excess requests
	// are shed with 429 + Retry-After. 0 means 2*Parallel (minimum 4).
	MaxInflight int
	// RequestTimeout is the per-request deadline for /v1 routes; 0 means
	// 2 minutes. Cancellation is honored between simulation cells (a cell
	// is not interruptible).
	RequestTimeout time.Duration
	// CacheBytes budgets the rendered-response LRU; 0 means 64 MiB.
	CacheBytes int64
	// Logf receives panic and lifecycle logs; nil means log.Printf.
	Logf func(format string, args ...any)

	// BreakerWindow is the number of recent /v1 outcomes the circuit
	// breaker remembers; 0 means 32.
	BreakerWindow int
	// BreakerThreshold is the failure (5xx) fraction of the window that
	// opens the circuit; 0 means 0.5.
	BreakerThreshold float64
	// BreakerMinSamples is the minimum outcomes before the rate can trip;
	// 0 means 8.
	BreakerMinSamples int
	// BreakerCooldown is how long an open circuit sheds before admitting a
	// half-open probe; 0 means 5s. rbfault sets this longer than the whole
	// campaign so trip counts are a pure function of the request sequence.
	BreakerCooldown time.Duration

	// Chaos enables deterministic service-level fault injection (rbfault's
	// service leg); the zero value disables it.
	Chaos ChaosConfig

	// Workers lists worker base URLs ("http://host:port"). Empty runs the
	// single-process service; non-empty makes this server a grid
	// coordinator: /v1/batch and /v1/experiment route their cells across the
	// workers by rendezvous hashing (DESIGN.md §16). PR 10 makes this a
	// *seed* list: workers can also join (and rejoin) at runtime via
	// POST /v1/register heartbeats (DESIGN.md §17).
	Workers []string
	// Coordinator forces coordinator mode even with an empty seed list — a
	// registration-only grid whose workers all join via /v1/register.
	Coordinator bool
	// NewTransport overrides how a worker URL becomes a transport; nil
	// builds an HTTP transport with a retrying client. Tests inject
	// goroutine-backed fakes here.
	NewTransport func(base string) grid.Transport
	// GridMaxInflight caps concurrently routed cells in coordinator mode;
	// 0 takes the router's default (4 per worker).
	GridMaxInflight int
	// HeartbeatInterval is the worker beat period the registry expects;
	// 0 means grid.DefaultHeartbeatInterval (2s).
	HeartbeatInterval time.Duration

	// JournalDir enables durable batches in coordinator mode: every
	// /v1/batch appends its spec and completed cells to an append-only
	// journal there, and incomplete journals are resumed by ResumeJournals
	// after a restart (DESIGN.md §17). Empty disables journaling; other
	// modes ignore it.
	JournalDir string
	// ProgressInterval is the cadence of `progress` records on streamed
	// (SSE/NDJSON) batches; 0 means 1s, negative disables them.
	ProgressInterval time.Duration
}

// Server is one rbserve instance. Create with New, mount Handler, Close
// when done.
type Server struct {
	cfg      Config
	pool     *pool.Pool
	harness  *experiments.Harness
	resp     *rcache.Cache
	met      *metrics
	sem      chan struct{} // admission-control slots for /v1 routes
	brk      *grid.Breaker
	router   *grid.Router // coordinator mode only: cell routing + shared result tier
	chaosSeq atomic.Int64 // chaotic-request ordinal
	mux      *http.ServeMux
	logf     func(format string, args ...any)

	closeOnce sync.Once
	closed    chan struct{} // stops the registry sweeper
	sweepDone chan struct{} // sweeper exited

	journaled atomic.Int64 // batches journaled since start
	resumed   atomic.Int64 // journals resumed at startup
}

// New builds a server from cfg (zero value = sensible defaults).
func New(cfg Config) *Server {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * cfg.Parallel
		if cfg.MaxInflight < 4 {
			cfg.MaxInflight = 4
		}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.BreakerWindow <= 0 {
		cfg.BreakerWindow = 32
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 0.5
	}
	if cfg.BreakerMinSamples <= 0 {
		cfg.BreakerMinSamples = 8
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	s := &Server{
		cfg:  cfg,
		pool: pool.New(cfg.Parallel, 0),
		resp: rcache.New(16, cfg.CacheBytes),
		met:  newMetrics(),
		sem:  make(chan struct{}, cfg.MaxInflight),
		brk:  grid.NewBreaker(cfg.BreakerWindow, cfg.BreakerThreshold, cfg.BreakerMinSamples, cfg.BreakerCooldown),
		logf: cfg.Logf,
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.harness = experiments.NewHarnessWith(s.pool, nil)
	s.closed = make(chan struct{})
	s.sweepDone = make(chan struct{})
	// A seed list, or registration-only coordinator mode, routes cells to
	// remote workers.
	if cfg.Coordinator || len(cfg.Workers) > 0 {
		s.router = newRouter(cfg)
		go s.sweepLoop()
	} else {
		// Resume seeds journaled cells into the router's shared tier, so
		// only a coordinator journals.
		s.cfg.JournalDir = ""
		close(s.sweepDone)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// sweepLoop advances the registry's health state machine every heartbeat
// interval until Close. The wall-clock reads are service plumbing; the
// state machine itself takes explicit timestamps and is tested (and
// chaos-campaigned) with a fake clock.
func (s *Server) sweepLoop() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.router.HeartbeatInterval()) //rblint:allow determinism
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			if n := s.router.Sweep(time.Now()); n > 0 { //rblint:allow determinism
				s.logf("grid: registry sweep: %d health transitions", n)
			}
		}
	}
}

// Coordinator-to-worker retry policy: extra attempts after a transport
// error or 5xx, and the first backoff delay (a worker's Retry-After hint
// overrides the schedule).
const (
	workerRetries   = 2
	workerRetryBase = 50 * time.Millisecond
)

// newRouter wires a coordinator's grid router: it fans out over HTTP (or
// injected fake) transports — the -workers list seeds the registry, and
// workers joining via /v1/register get transports from the same factory.
func newRouter(cfg Config) *grid.Router {
	newT := cfg.NewTransport
	if newT == nil {
		newT = func(workerURL string) grid.Transport {
			return &grid.HTTP{Base: workerURL, Client: &grid.RetryClient{
				HTTP:    &http.Client{Timeout: cfg.RequestTimeout},
				Retries: workerRetries,
				Base:    workerRetryBase,
			}}
		}
	}
	opts := grid.Options{
		MaxInflight:       cfg.GridMaxInflight,
		NewTransport:      newT,
		HeartbeatInterval: cfg.HeartbeatInterval,
		BreakerWindow:     cfg.BreakerWindow,
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerMinSamples: cfg.BreakerMinSamples,
		BreakerCooldown:   cfg.BreakerCooldown,
	}
	for _, w := range cfg.Workers {
		opts.Workers = append(opts.Workers, newT(w))
	}
	router, err := grid.NewRouter(opts)
	if err != nil {
		// Only reachable via duplicate worker names; fail fast at startup.
		panic(err)
	}
	return router
}

// runner is the Runner every artifact runs on: the router in coordinator
// mode, otherwise the harness with every cell on the pool.
func (s *Server) runner() experiments.Runner {
	if s.router != nil {
		return s.router
	}
	return poolRunner{s}
}

// runCell computes one cell: routed in coordinator mode, otherwise on this
// server's harness and pool, the computation /v1/cell runs for a
// coordinator.
func (s *Server) runCell(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
	if s.router != nil {
		return s.router.Do(ctx, req)
	}
	return grid.RunLocal(ctx, s.harness, req, s.runInPool)
}

// poolRunner is a non-coordinator server's Runner. RunMatrix is the
// harness's, which already submits each cell to the pool; RunCell submits
// its one cell too, so a TeeRunner over it, whose fan-out calls RunCell
// on fresh goroutines, stays inside the pool's CPU bound.
type poolRunner struct{ s *Server }

func (p poolRunner) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	var (
		res *core.Result
		err error
	)
	if perr := p.s.runInPool(ctx, func() { res, err = p.s.harness.RunCell(ctx, cfg, w) }); perr != nil {
		return nil, perr
	}
	return res, err
}

func (p poolRunner) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	return p.s.harness.RunMatrix(ctx, cfgs, wls)
}

// Handler is the fully wired route tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the registry sweeper, then drains and stops the worker pool.
// Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		<-s.sweepDone
		s.pool.Close()
	})
}

// routes mounts every endpoint. /healthz and /metrics bypass admission
// control and the breaker — they must answer even when the simulation
// queue is saturated or the circuit is open — while every heavy /v1 route
// is observed, circuit-broken, chaos-injected (when configured), limited,
// and deadline-bounded, in that order: the breaker sheds before any work
// starts, and chaos faults are visible to the breaker like real failures.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.observed(s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.observed(s.handleMetrics))
	s.mux.HandleFunc("GET /v1/workloads", s.observed(s.handleWorkloads))
	s.mux.HandleFunc("GET /v1/experiment/{name}", s.observed(s.breaking(s.chaotic(s.limited(s.handleExperiment)))))
	s.mux.HandleFunc("GET /v1/sim", s.observed(s.breaking(s.chaotic(s.limited(s.handleSim)))))
	s.mux.HandleFunc("GET /v1/check", s.observed(s.breaking(s.chaotic(s.limited(s.handleCheck)))))
	// Grid endpoints (DESIGN.md §16): /v1/cell is the worker's unit of
	// distribution (one cell in, one result out); /v1/batch is the
	// coordinator's sweep endpoint, streaming per-cell results over SSE or
	// NDJSON as they land.
	s.mux.HandleFunc("POST /v1/cell", s.observed(s.breaking(s.chaotic(s.limited(s.handleCell)))))
	s.mux.HandleFunc("GET /v1/batch", s.observed(s.breaking(s.chaotic(s.limited(s.handleBatch)))))
	s.mux.HandleFunc("POST /v1/batch", s.observed(s.breaking(s.chaotic(s.limited(s.handleBatch)))))
	// Resilience endpoints (DESIGN.md §17): /v1/register is the worker
	// heartbeat (cheap, must work even when the grid is saturated, so it
	// bypasses admission control like /healthz); /v1/batches lists journaled
	// batches and their recovery state.
	s.mux.HandleFunc("POST /v1/register", s.observed(s.handleRegister))
	s.mux.HandleFunc("GET /v1/batches", s.observed(s.handleBatches))
	// Live profiling of the serving process (README "Profiling the
	// simulator"); pprof handlers stream and manage their own timeouts.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}
