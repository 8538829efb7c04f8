package server

// Service-level fault injection for the rbfault campaign (DESIGN.md §12):
// deterministic, counter-ordinal chaos. Every chaos decision is a pure
// function of the request ordinal — the Nth chaotic request always draws
// the same fault for a given configuration — so a serial request sequence
// produces identical injected-fault and breaker-trip counts on every run.
// The sleeps themselves take wall time; only the *outcomes* (status codes,
// counter values) are deterministic, which is all the campaign reports.
//
// Chaos sits inside the breaker and outside admission control: injected
// failures look exactly like real backend failures to the breaker, and an
// injected slow request still occupies an admission slot (that is the
// point — chaos must exercise the real shedding machinery).

import (
	"context"
	"net/http"
	"time"
)

// ChaosConfig switches on service-level fault injection. The zero value
// disables it entirely (production shape). Every "Every" field is a modulus
// over the chaotic-request ordinal: 0 disables that fault, N injects on
// every Nth request (ordinals N, 2N, ...). When several faults select the
// same ordinal, all apply (cancellation last).
type ChaosConfig struct {
	// LatencyEvery injects Latency of handler delay on every Nth request.
	LatencyEvery int64
	Latency      time.Duration
	// CancelEvery cancels the request's context before the handler runs on
	// every Nth request, modeling a client that gives up mid-flight; the
	// handler surfaces it as 503.
	CancelEvery int64
	// ExhaustEvery occupies every pool worker with a blocking task for
	// ExhaustHold on every Nth request, modeling a saturated simulation
	// queue; the victim request (and its successors) queue behind the
	// blockers and complete late but correctly.
	ExhaustEvery int64
	ExhaustHold  time.Duration
}

// Enabled reports whether any fault is configured.
func (c ChaosConfig) Enabled() bool {
	return c.LatencyEvery > 0 || c.CancelEvery > 0 || c.ExhaustEvery > 0
}

// chaotic is the fault-injection middleware; with chaos disabled it is the
// identity and adds zero overhead to the request path.
func (s *Server) chaotic(h http.HandlerFunc) http.HandlerFunc {
	c := s.cfg.Chaos
	if !c.Enabled() {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		seq := s.chaosSeq.Add(1)
		if c.LatencyEvery > 0 && seq%c.LatencyEvery == 0 {
			s.met.chaosInjected.Add(1)
			time.Sleep(c.Latency) //rblint:allow determinism
		}
		if c.ExhaustEvery > 0 && seq%c.ExhaustEvery == 0 {
			s.met.chaosInjected.Add(1)
			s.exhaustPool(c.ExhaustHold)
		}
		if c.CancelEvery > 0 && seq%c.CancelEvery == 0 {
			s.met.chaosInjected.Add(1)
			ctx, cancel := context.WithCancel(r.Context())
			cancel()
			h(w, r.WithContext(ctx))
			return
		}
		h(w, r)
	}
}

// exhaustPool wedges every worker on a shared timer for hold, so the next
// simulation submitted to the pool waits out the hold first. The timer
// closes the release channel, freeing every blocker at once (a one-shot
// time.After value would free only one and wedge the rest for good).
// TrySubmit is used so exhaustion can never deadlock a pool that is
// already saturated or closing.
func (s *Server) exhaustPool(hold time.Duration) {
	release := make(chan struct{})
	time.AfterFunc(hold, func() { close(release) }) //rblint:allow determinism
	for i := 0; i < s.pool.Workers(); i++ {
		s.pool.TrySubmit(func() { <-release })
	}
}
