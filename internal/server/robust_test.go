package server

// Robustness tests: malformed query parameters can never 500 (every parse
// failure is a 4xx with a JSON error body), the circuit breaker trips on
// chaos-injected failures and recovers through a half-open probe, and
// chaos latency/pool-exhaustion faults degrade service without breaking
// it.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/grid"
)

// TestBadParamsNever500 sweeps malformed inputs across /v1/sim, /v1/check,
// and /v1/experiment. The contract: a parse or validation failure is the
// client's fault — always a 4xx, always a JSON {"error": ...} body, never
// a 500 or a panic. The width cases include the degenerate widths that
// once reached machine construction (width/2 scheduler division) and
// crashed it.
func TestBadParamsNever500(t *testing.T) {
	paths := []string{
		// /v1/sim: width must be an even integer in [2, 64].
		"/v1/sim?workload=compress&width=0",
		"/v1/sim?workload=compress&width=1",
		"/v1/sim?workload=compress&width=-1",
		"/v1/sim?workload=compress&width=-8",
		"/v1/sim?workload=compress&width=3",
		"/v1/sim?workload=compress&width=999",
		"/v1/sim?workload=compress&width=abc",
		"/v1/sim?workload=compress&width=2.5",
		// /v1/sim: other parameters.
		"/v1/sim",
		"/v1/sim?workload=",
		"/v1/sim?workload=nosuch",
		"/v1/sim?workload=compress&machine=nosuch",
		"/v1/sim?workload=compress&sched=bogus",
		"/v1/sim?workload=compress&check=maybe",
		"/v1/sim?workload=compress&wrong-path=42x",
		"/v1/sim?workload=compress&no-bypass-levels=0",
		"/v1/sim?workload=compress&no-bypass-levels=9",
		"/v1/sim?workload=compress&no-bypass-levels=x",
		"/v1/sim?workload=compress&no-bypass-levels=1,,2",
		// /v1/sim: sampled-simulation parameters.
		"/v1/sim?workload=compress&samples=abc",
		"/v1/sim?workload=compress&samples=1",
		"/v1/sim?workload=compress&samples=-4",
		"/v1/sim?workload=compress&samples=99999999",
		"/v1/sim?workload=compress&samples=10&warmup=abc",
		"/v1/sim?workload=compress&samples=10&warmup=-1",
		"/v1/sim?workload=compress&samples=10&measure=0",
		"/v1/sim?workload=compress&samples=10&measure=-3",
		"/v1/sim?workload=compress&samples=10&ff-warm=-5",
		"/v1/sim?workload=compress&samples=10&ff-warm=x",
		"/v1/sim?workload=compress&samples=10&check=true",
		"/v1/sim?workload=compress&samples=10&sched=poll",
		// Windows larger than the workload cannot tile it.
		"/v1/sim?workload=compress&samples=10&warmup=500000&measure=500000",
		// /v1/check.
		"/v1/check?layer=bogus",
		"/v1/check?full=maybe",
		"/v1/check?seed=1e5",
		"/v1/check?seed=abc",
		// /v1/experiment.
		"/v1/experiment/nosuch",
		"/v1/experiment/fig9?format=xml",
		"/v1/experiment/ipc?width=5",
		"/v1/experiment/ipc?width=0",
		"/v1/experiment/ipc?width=abc",
		"/v1/experiment/ipc?suite=bogus",
		// /v1/sim: variance-adaptive parameters.
		"/v1/sim?workload=compress&ci-target=0.1",
		"/v1/sim?workload=compress&samples=4&ci-target=abc",
		"/v1/sim?workload=compress&samples=4&ci-target=0",
		"/v1/sim?workload=compress&samples=4&ci-target=-0.5",
		"/v1/sim?workload=compress&samples=4&ci-target=1",
		"/v1/sim?workload=compress&samples=4&ci-target=1.5",
		"/v1/sim?workload=compress&samples=4&ci-target=NaN",
		// /v1/batch: the sweep axes reuse the same taxonomy.
		"/v1/batch",
		"/v1/batch?format=xml",
		"/v1/batch?machines=nosuch",
		"/v1/batch?machines=baseline&widths=abc",
		"/v1/batch?machines=baseline&widths=7",
		"/v1/batch?machines=baseline&windows=7",
		"/v1/batch?machines=baseline&workloads=nosuch",
		"/v1/batch?machines=baseline&suite=SPECfp",
		"/v1/batch?machines=baseline&workloads=mcf&suite=all",
		"/v1/batch?machines=baseline&samples=abc",
		"/v1/batch?machines=baseline&samples=1",
		"/v1/batch?machines=baseline&samples=4&warmup=-1",
		"/v1/batch?no-bypass-levels=0",
		"/v1/batch?no-bypass-levels=9",
		"/v1/batch?artifact=nosuch",
		"/v1/batch?artifact=fig9&machines=baseline",
		"/v1/batch?artifact=ipc&width=5",
		"/v1/batch?artifact=ipc&suite=bogus",
	}
	for _, p := range paths {
		rec, body := get(t, p)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("GET %s = %d, want a 4xx (%s)", p, rec.Code, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("GET %s: error body is not JSON: %v (%s)", p, err, body)
		} else if e["error"] == "" {
			t.Errorf("GET %s: error body missing \"error\" key: %s", p, body)
		}
	}
}

// TestBreakerStateMachine drives the breaker directly with explicit
// timestamps: failures trip it at the threshold, an open circuit sheds
// until the cooldown, a failed probe re-opens it, and a clean probe closes
// it with a cleared window.
func TestBreakerStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := grid.NewBreaker(8, 0.5, 4, time.Minute)
	record := func(status int, probe bool, now time.Time) { b.Record(status >= 500, probe, now) }

	// Three failures out of four samples: 0.75 >= 0.5 at min samples, trip.
	for i, status := range []int{200, 500, 503, 504} {
		if ok, probe := b.Admit(t0); !ok || probe {
			t.Fatalf("admit %d while closed = (%v, %v), want (true, false)", i, ok, probe)
		}
		record(status, false, t0)
	}
	if state, trips, _ := b.Snapshot(); state != "open" || trips != 1 {
		t.Fatalf("after failures: state=%s trips=%d, want open/1", state, trips)
	}

	// Open: everything shed until the cooldown elapses.
	if ok, _ := b.Admit(t0.Add(30 * time.Second)); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if _, _, shed := b.Snapshot(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}

	// Cooldown over: exactly one probe is admitted, its rival is shed.
	ok, probe := b.Admit(t0.Add(2 * time.Minute))
	if !ok || !probe {
		t.Fatalf("post-cooldown admit = (%v, %v), want probe", ok, probe)
	}
	if ok, _ := b.Admit(t0.Add(2 * time.Minute)); ok {
		t.Fatal("second request admitted while a probe is in flight")
	}

	// Probe fails: re-open, another cooldown.
	record(500, true, t0.Add(2*time.Minute))
	if state, trips, _ := b.Snapshot(); state != "open" || trips != 2 {
		t.Fatalf("after failed probe: state=%s trips=%d, want open/2", state, trips)
	}

	// Next probe succeeds: closed, window cleared (a single new failure
	// must not instantly re-trip).
	ok, probe = b.Admit(t0.Add(4 * time.Minute))
	if !ok || !probe {
		t.Fatalf("second post-cooldown admit = (%v, %v), want probe", ok, probe)
	}
	record(200, true, t0.Add(4*time.Minute))
	if state, _, _ := b.Snapshot(); state != "closed" {
		t.Fatalf("after clean probe: state=%s, want closed", state)
	}
	record(500, false, t0.Add(4*time.Minute))
	if state, _, _ := b.Snapshot(); state != "closed" {
		t.Fatal("one failure after recovery re-tripped a cleared window")
	}
}

// chaosServer builds a private server (the shared one must stay
// chaos-free) with a breaker tuned for fast, deterministic tripping.
func chaosServer(t *testing.T, chaos ChaosConfig) *Server {
	t.Helper()
	s := New(Config{
		Logf:              func(string, ...any) {},
		Chaos:             chaos,
		BreakerWindow:     8,
		BreakerThreshold:  0.5,
		BreakerMinSamples: 4,
		BreakerCooldown:   time.Hour, // never half-open within a test
	})
	t.Cleanup(s.Close)
	return s
}

func getFrom(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestBreakerTripsOnChaosCancellation: with every request's context
// chaos-canceled, each serial request fails 503; at BreakerMinSamples
// failures the circuit opens and subsequent requests are shed without
// reaching the handler. The counts are a pure function of the request
// ordinal — the service leg of rbfault relies on exactly this.
func TestBreakerTripsOnChaosCancellation(t *testing.T) {
	s := chaosServer(t, ChaosConfig{CancelEvery: 1})
	const n = 10
	for i := 0; i < n; i++ {
		if rec := getFrom(t, s, "/v1/sim?workload=compress&machine=rb-full&width=4"); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d = %d, want 503", i, rec.Code)
		}
	}
	state, trips, shed := s.brk.Snapshot()
	if state != "open" || trips != 1 {
		t.Fatalf("breaker state=%s trips=%d, want open/1", state, trips)
	}
	// 4 failures tripped it; the remaining 6 requests were shed.
	if want := int64(n - 4); shed != want {
		t.Fatalf("shed = %d, want %d", shed, want)
	}
	if got := s.met.chaosInjected.Load(); got != 4 {
		t.Fatalf("chaos injected = %d, want 4 (shed requests never reach chaos)", got)
	}
	// Shed responses advertise the cooldown.
	rec := getFrom(t, s, "/v1/sim?workload=compress&machine=rb-full&width=4")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response = %d, Retry-After=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestChaosLatencyAndExhaustionRecover: latency and pool-exhaustion faults
// slow requests down but every request still completes correctly — the
// worker pool drains the blockers and the breaker never trips on 2xx.
func TestChaosLatencyAndExhaustionRecover(t *testing.T) {
	s := chaosServer(t, ChaosConfig{
		LatencyEvery: 2, Latency: 5 * time.Millisecond,
		ExhaustEvery: 3, ExhaustHold: 10 * time.Millisecond,
	})
	for i := 0; i < 6; i++ {
		rec := getFrom(t, s, "/v1/sim?workload=compress&machine=rb-full&width=4")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d under chaos = %d, want 200", i, rec.Code)
		}
	}
	if state, trips, _ := s.brk.Snapshot(); state != "closed" || trips != 0 {
		t.Fatalf("breaker state=%s trips=%d after successful chaos, want closed/0", state, trips)
	}
	if got := s.met.chaosInjected.Load(); got != 3+2 {
		t.Fatalf("chaos injected = %d, want 5 (3 latency + 2 exhaust)", got)
	}
}
