package server

// Robustness middleware: panic recovery, latency metrics, admission
// control, and per-request deadlines. Wall-clock reads here are allowlisted
// — they time the service, not the simulator (see internal/lint determinism
// rule).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/grid"
	"repro/internal/pool"
)

// statusWriter captures the response status and whether anything was
// written, so the recovery middleware knows if it can still emit an error
// body.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so streaming handlers (SSE/NDJSON
// batches) can push events through the middleware chain incrementally.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observed wraps every route: it recovers panics into 500s (a crashed
// simulation must not take the process down), counts the request, and feeds
// its latency into the quantile sketch.
func (s *Server) observed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.met.requests.Add(1)
		s.met.inflight.Add(1)
		start := time.Now() //rblint:allow determinism
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError,
						fmt.Sprintf("internal error: %v", p))
				}
				sw.status = http.StatusInternalServerError
			}
			s.met.inflight.Add(-1)
			s.met.observe(sw.status, time.Since(start).Seconds()) //rblint:allow determinism
		}()
		h(sw, r)
	}
}

// breaking is the circuit-breaker middleware over grid.Breaker (the same
// state machine the coordinator runs per worker): once the recent 5xx rate
// — chaos-injected cancellations and pool-exhaustion timeouts included —
// crosses the threshold, requests are shed with 503 + Retry-After until a
// half-open probe succeeds. It sits outside the chaos and admission layers
// so injected failures trip it exactly as real backend failures would, and
// an open circuit sheds load before any work (or fault) happens.
func (s *Server) breaking(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		allowed, probe := s.brk.Admit(time.Now()) //rblint:allow determinism
		if !allowed {
			retry := int(math.Ceil(s.brk.Cooldown().Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(max(retry, 1)))
			writeError(w, http.StatusServiceUnavailable, "circuit open; retry later")
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.brk.Record(sw.status >= 500, probe, time.Now()) //rblint:allow determinism
	}
}

// limited gates the heavy /v1 routes behind admission control and a
// per-request deadline: when MaxInflight requests are already running, the
// request is shed immediately with 429 + Retry-After rather than queued
// into an unbounded pile-up (the worker pool behind the handlers is the
// actual CPU bound; this cap bounds the waiters).
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.met.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeError(w, http.StatusTooManyRequests, "server saturated; retry later")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// retryAfterSeconds is the hint sent with 429 responses.
const retryAfterSeconds = 1

// failRequest maps a handler error to a response: context deadline
// exhaustion becomes 504 (the work itself cannot be aborted mid-cell, but
// the client stops waiting), cancellation 499-style 503, a closed worker
// pool 503 (the process is draining), an exhausted grid 503 (every worker
// down or every breaker open is a capacity failure, not a caller mistake),
// everything else 400 — by the time a request reaches the simulator,
// invalid parameters are the only expected failure.
func (s *Server) failRequest(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	case errors.Is(err, pool.ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, grid.ErrNoWorkers):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}
