package server

// Wall-clock reads in this file are deliberate and allowlisted: request
// latencies and uptime describe the *service*, never simulated time, which
// remains cycle-counted and deterministic (see internal/lint determinism
// rule).

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/rcache"
	"repro/internal/stats"
)

// metrics is the server's live counter set, updated lock-free on the
// request path and snapshotted by the /metrics endpoint.
type metrics struct {
	start time.Time

	requests      atomic.Int64 // requests admitted to a handler
	inflight      atomic.Int64 // currently executing requests
	rejected      atomic.Int64 // 429s from admission control
	timeouts      atomic.Int64 // requests that hit their deadline
	panics        atomic.Int64 // handler panics converted to 500s
	chaosInjected atomic.Int64 // chaos faults injected (rbfault campaigns)
	status2xx     atomic.Int64
	status4xx     atomic.Int64
	status5xx     atomic.Int64

	latency *stats.LatencySketch
}

func newMetrics() *metrics {
	return &metrics{
		start:   time.Now(), //rblint:allow determinism
		latency: stats.NewDefaultLatencySketch(),
	}
}

// observe records one finished request.
func (m *metrics) observe(status int, seconds float64) {
	switch {
	case status >= 500:
		m.status5xx.Add(1)
	case status >= 400:
		m.status4xx.Add(1)
	default:
		m.status2xx.Add(1)
	}
	m.latency.Observe(seconds)
}

// MetricsSnapshot is the /metrics response body. Field order is fixed by
// the struct, so the rendering is deterministic for a given counter state.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`

	Requests  int64 `json:"requests"`
	Inflight  int64 `json:"inflight"`
	Rejected  int64 `json:"rejected_429"`
	Timeouts  int64 `json:"timeouts"`
	Panics    int64 `json:"panics"`
	Status2xx int64 `json:"status_2xx"`
	Status4xx int64 `json:"status_4xx"`
	Status5xx int64 `json:"status_5xx"`

	Latency struct {
		Count uint64  `json:"count"`
		P50Ms float64 `json:"p50_ms"`
		P90Ms float64 `json:"p90_ms"`
		P99Ms float64 `json:"p99_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`

	Breaker struct {
		State         string `json:"state"` // closed, open, or half-open
		Trips         int64  `json:"trips"`
		Shed          int64  `json:"shed_503"`
		ChaosInjected int64  `json:"chaos_injected"`
	} `json:"breaker"`

	Pool struct {
		Workers   int   `json:"workers"`
		Depth     int64 `json:"queue_depth"`
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
	} `json:"pool"`

	CellCache     rcache.Stats `json:"cell_cache"`
	ResponseCache rcache.Stats `json:"response_cache"`

	// Grid reports the cell router: per-worker circuit state, health, and
	// traffic counters, registry churn, hedging, plus the coordinator's
	// shared result tier. In a single-process server the one "local" worker
	// appears here too, so the section's shape is mode-independent.
	Grid struct {
		Mode        string                `json:"mode"` // local or coordinator
		Workers     []grid.WorkerSnapshot `json:"workers"`
		Registry    grid.RegistryStats    `json:"registry"`
		Hedges      int64                 `json:"hedges"`
		HedgeWins   int64                 `json:"hedge_wins"`
		SharedCache rcache.Stats          `json:"shared_cache"`
	} `json:"grid"`

	// Journal reports durable-batch activity (zero-valued when -journal-dir
	// is unset).
	Journal struct {
		Journaled int64 `json:"batches_journaled"`
		Resumed   int64 `json:"batches_resumed"`
	} `json:"journal"`
}

// snapshot assembles the full snapshot.
func (s *Server) snapshot() MetricsSnapshot {
	m := s.met
	var out MetricsSnapshot
	out.UptimeSeconds = time.Since(m.start).Seconds() //rblint:allow determinism
	out.Goroutines = runtime.NumGoroutine()
	out.Requests = m.requests.Load()
	out.Inflight = m.inflight.Load()
	out.Rejected = m.rejected.Load()
	out.Timeouts = m.timeouts.Load()
	out.Panics = m.panics.Load()
	out.Status2xx = m.status2xx.Load()
	out.Status4xx = m.status4xx.Load()
	out.Status5xx = m.status5xx.Load()
	out.Latency.Count = m.latency.Count()
	out.Latency.P50Ms = 1e3 * m.latency.Quantile(0.50)
	out.Latency.P90Ms = 1e3 * m.latency.Quantile(0.90)
	out.Latency.P99Ms = 1e3 * m.latency.Quantile(0.99)
	out.Latency.MaxMs = 1e3 * m.latency.Max()
	out.Breaker.State, out.Breaker.Trips, out.Breaker.Shed = s.brk.Snapshot()
	out.Breaker.ChaosInjected = m.chaosInjected.Load()
	out.Pool.Workers = s.pool.Workers()
	out.Pool.Depth = s.pool.Depth()
	out.Pool.Submitted = s.pool.Submitted()
	out.Pool.Completed = s.pool.Completed()
	out.CellCache = s.harness.CacheStats()
	out.ResponseCache = s.resp.Stats()
	out.Grid.Mode = "local"
	if s.coordinator() {
		out.Grid.Mode = "coordinator"
	}
	out.Grid.Workers, out.Grid.SharedCache = s.router.Snapshot()
	rs := s.router.Stats()
	out.Grid.Registry = rs.Registry
	out.Grid.Hedges = rs.Hedges
	out.Grid.HedgeWins = rs.HedgeWins
	out.Journal.Journaled = s.journaled.Load()
	out.Journal.Resumed = s.resumed.Load()
	return out
}

// handleMetrics serves the counters as indented JSON (expvar-style: one
// GET, no parameters, always cheap — it must respond even when the
// simulation queue is saturated, so it bypasses admission control).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshot())
}

// writeJSON emits v as indented JSON with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError emits a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
