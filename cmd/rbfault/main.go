// Command rbfault runs the deterministic fault-injection campaign
// (internal/fault, DESIGN.md §12) plus a service-level chaos leg against an
// in-process rbserve instance, and reports detection coverage, detection
// latency, and false-negative sites as the table EXPERIMENTS.md cites.
//
// Usage:
//
//	rbfault [-quick|-full] [-json] [-seed N] [-grid]
//
// Everything on stdout is a pure function of (seed, tier): two runs at the
// same seed are byte-identical, which is what lets CI diff campaign output.
// -grid adds the grid chaos campaign (routing, heartbeats, journal resume).
// Timing and progress go to stderr only. The exit status is 0 iff every
// detection floor of fault.Floors holds (gate coverage above its empirical
// floor, 100% detection of single RB digit flips and unmasked stale
// substitutions, full watchdog recovery within the detection bound — the
// floors rbcheck's faults layer reports) and the service leg shows the
// expected deterministic chaos outcome counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
)

// stdout buffers the command's output; main flushes it and exits 1 if any
// of it could not be written.
var stdout = bufio.NewWriter(os.Stdout)

func main() {
	code := run()
	if err := stdout.Flush(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rbfault: writing output: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

// run is the command; it returns the exit status.
func run() int {
	quick := flag.Bool("quick", true, "run the quick tier (the CI gate)")
	full := flag.Bool("full", false, "run the full tier (overrides -quick)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON")
	seed := flag.Int64("seed", 0, "campaign seed")
	gridLeg := flag.Bool("grid", false, "add the grid chaos campaign (routing, heartbeats, journal resume)")
	flag.Parse()
	_ = quick // -quick is the default; -full overrides it

	start := time.Now()
	campaign, err := fault.Run(fault.Options{Full: *full, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbfault:", err)
		return 1
	}
	svc, err := runServiceLeg()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbfault: service leg:", err)
		return 1
	}
	var gridRep *fault.GridReport
	if *gridLeg {
		if gridRep, err = fault.RunGrid(fault.Options{Full: *full, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "rbfault: grid leg:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "rbfault: campaign finished in %v\n", time.Since(start).Round(time.Millisecond))

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			*fault.Campaign
			Service *serviceReport    `json:"Service"`
			Grid    *fault.GridReport `json:"Grid,omitempty"`
		}{campaign, svc, gridRep}); err != nil {
			fmt.Fprintln(os.Stderr, "rbfault:", err)
			return 1
		}
	} else {
		campaign.WriteText(stdout)
		svc.writeText(stdout)
		if gridRep != nil {
			gridRep.WriteText(stdout)
		}
	}

	if err := verify(campaign, svc); err != nil {
		fmt.Fprintln(os.Stderr, "rbfault: FAIL:", err)
		return 1
	}
	if gridRep != nil {
		if err := gridRep.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "rbfault: FAIL:", err)
			return 1
		}
	}
	return 0
}

// serviceReport is the service-level chaos leg's outcome. Every field is a
// deterministic function of the request sequence: chaos faults fire by
// request ordinal and the breaker cooldown exceeds the whole run, so the
// wall clock never influences a count.
type serviceReport struct {
	// Cancel-storm phase: every second request's context is canceled
	// before its handler runs; the circuit breaker must trip at its
	// minimum sample count and shed the remainder.
	StormRequests int   `json:"storm_requests"`
	StormOK       int   `json:"storm_ok"`
	StormCanceled int   `json:"storm_canceled_503"`
	StormShed     int   `json:"storm_shed_503"`
	BreakerTrips  int64 `json:"breaker_trips"`
	// Degraded phase: injected latency and pool exhaustion slow requests
	// without failing them; the breaker must stay closed.
	DegradedRequests int   `json:"degraded_requests"`
	DegradedOK       int   `json:"degraded_ok"`
	DegradedInjected int64 `json:"degraded_chaos_injected"`
}

const simPath = "/v1/sim?workload=compress&machine=rb-full&width=4"

// runServiceLeg drives two in-process rbserve instances through their
// public HTTP surface: a cancel storm that must trip the breaker, and a
// latency/exhaustion phase the service must absorb.
func runServiceLeg() (*serviceReport, error) {
	rep := &serviceReport{StormRequests: 12, DegradedRequests: 8}

	// Phase 1: cancel storm. Every request's context is canceled before
	// its handler runs (an intermittent CancelEvery would let the first
	// success fill the response cache, and cache hits — served from memory
	// — rightly ignore cancellation). Four straight 503s reach
	// BreakerMinSamples at failure rate 1.0 and the circuit opens; the
	// cooldown outlives the run, so every later request is shed before any
	// work starts.
	storm := server.New(server.Config{
		Logf:              func(string, ...any) {},
		Chaos:             server.ChaosConfig{CancelEvery: 1},
		BreakerWindow:     8,
		BreakerThreshold:  0.5,
		BreakerMinSamples: 4,
		BreakerCooldown:   time.Hour,
	})
	for i := 0; i < rep.StormRequests; i++ {
		code, errMsg, err := doGet(storm, simPath)
		if err != nil {
			storm.Close()
			return nil, err
		}
		switch {
		case code == http.StatusOK:
			rep.StormOK++
		case code == http.StatusServiceUnavailable && errMsg == "request canceled":
			rep.StormCanceled++
		case code == http.StatusServiceUnavailable && errMsg == "circuit open; retry later":
			rep.StormShed++
		default:
			storm.Close()
			return nil, fmt.Errorf("storm request %d: unexpected %d %q", i, code, errMsg)
		}
	}
	var snap server.MetricsSnapshot
	if err := getMetrics(storm, &snap); err != nil {
		storm.Close()
		return nil, err
	}
	rep.BreakerTrips = snap.Breaker.Trips
	storm.Close()

	// Phase 2: degraded service. Latency and pool-exhaustion faults delay
	// requests; all of them must still complete with 200.
	degraded := server.New(server.Config{
		Logf: func(string, ...any) {},
		Chaos: server.ChaosConfig{
			LatencyEvery: 3, Latency: 2 * time.Millisecond,
			ExhaustEvery: 4, ExhaustHold: 5 * time.Millisecond,
		},
	})
	defer degraded.Close()
	for i := 0; i < rep.DegradedRequests; i++ {
		code, errMsg, err := doGet(degraded, simPath)
		if err != nil {
			return nil, err
		}
		if code == http.StatusOK {
			rep.DegradedOK++
		} else {
			return nil, fmt.Errorf("degraded request %d: unexpected %d %q", i, code, errMsg)
		}
	}
	if err := getMetrics(degraded, &snap); err != nil {
		return nil, err
	}
	rep.DegradedInjected = snap.Breaker.ChaosInjected
	return rep, nil
}

// doGet issues one request against the server's handler and returns the
// status plus any JSON error message.
func doGet(s *server.Server, path string) (code int, errMsg string, err error) {
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		if jerr := json.Unmarshal(rec.Body.Bytes(), &e); jerr != nil {
			return rec.Code, "", fmt.Errorf("GET %s: %d with non-JSON error body %q", path, rec.Code, rec.Body.String())
		}
		return rec.Code, e.Error, nil
	}
	return rec.Code, "", nil
}

func getMetrics(s *server.Server, snap *server.MetricsSnapshot) error {
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return json.Unmarshal(rec.Body.Bytes(), snap)
}

func (r *serviceReport) writeText(w io.Writer) {
	fmt.Fprintf(w, "\nservice level (chaos against in-process rbserve, breaker 8-window/0.50/min-4):\n")
	fmt.Fprintf(w, "  cancel-storm %3d requests: %d ok, %d canceled 503, %d shed by open breaker (trips %d)\n",
		r.StormRequests, r.StormOK, r.StormCanceled, r.StormShed, r.BreakerTrips)
	fmt.Fprintf(w, "  degraded     %3d requests: %d ok under injected latency + pool exhaustion (%d faults)\n",
		r.DegradedRequests, r.DegradedOK, r.DegradedInjected)
}

// verify asserts the campaign's detection floors (fault.Floors, the ones
// the rbcheck faults layer reports) and the service leg's deterministic
// outcome counts.
func verify(c *fault.Campaign, svc *serviceReport) error {
	if err := c.Verify(); err != nil {
		return err
	}
	// The storm's outcome sequence is fully determined: four straight
	// canceled 503s trip the breaker at its minimum sample count, then
	// everything is shed.
	if svc.StormOK != 0 || svc.StormCanceled != 4 || svc.StormShed != svc.StormRequests-4 || svc.BreakerTrips != 1 {
		return fmt.Errorf("cancel storm: ok=%d canceled=%d shed=%d trips=%d — want 0/4/%d/1",
			svc.StormOK, svc.StormCanceled, svc.StormShed, svc.BreakerTrips, svc.StormRequests-4)
	}
	if svc.DegradedOK != svc.DegradedRequests {
		return fmt.Errorf("degraded phase: %d/%d requests ok", svc.DegradedOK, svc.DegradedRequests)
	}
	wantInjected := int64(svc.DegradedRequests/3 + svc.DegradedRequests/4)
	if svc.DegradedInjected != wantInjected {
		return fmt.Errorf("degraded phase: %d chaos faults injected, want %d", svc.DegradedInjected, wantInjected)
	}
	return nil
}
