package server

// Cell-path tests: one name identifies one config per process (the alias
// guard answers 400, never the other config's result), wrong-path cells
// are refused, and pool-exhaustion chaos releases every wedged worker.

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workload"
)

// privateServer builds a server whose caches no other test shares.
func privateServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Logf = func(string, ...any) {}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func cellBody(t *testing.T, cfg machine.Config, wl string) string {
	t.Helper()
	b, err := json.Marshal(&grid.CellRequest{Config: cfg, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCellAliasRefused: a 32-entry-window RB-full-8 posted under the stock
// name computes its own result; the stock 128-entry RB-full-8 posted next
// shares its cell key but not its config, and is refused with 400 instead
// of being answered with the 32-entry cycles.
func TestCellAliasRefused(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	small := machine.NewRBFull(8)
	small.WindowSize = 32
	small.SchedulerSize = 32 / small.NumSchedulers

	rec, out := postJSON(t, s, "/v1/cell", cellBody(t, small, "compress"))
	if rec.Code != http.StatusOK {
		t.Fatalf("32-entry cell = %d: %s", rec.Code, out)
	}
	var got grid.CellResult
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, _ := workload.ByName("compress")
	want, err := experiments.NewHarness(1).RunCell(ctx, small, w)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := experiments.NewHarness(1).RunCell(ctx, machine.NewRBFull(8), w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cycles != want.Cycles || want.Cycles == stock.Cycles {
		t.Fatalf("32-entry cell cycles = %d, want %d (stock %d)", got.Result.Cycles, want.Cycles, stock.Cycles)
	}

	rec, out = postJSON(t, s, "/v1/cell", cellBody(t, machine.NewRBFull(8), "compress"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("stock cell after its alias = %d, want 400: %s", rec.Code, out)
	}
	if !strings.Contains(string(out), "different RB-full-8 config") {
		t.Fatalf("alias refusal does not name the conflict: %s", out)
	}
}

// TestCellWrongPathRefused: harness cells run without the program image, so
// a wrong-path cell would silently return a result without wrong-path
// modeling; /v1/cell refuses it instead.
func TestCellWrongPathRefused(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	cfg := machine.NewBaseline(4)
	cfg.ModelWrongPath = true
	rec, out := postJSON(t, s, "/v1/cell", cellBody(t, cfg, "compress"))
	if rec.Code != http.StatusBadRequest || !strings.Contains(string(out), "wrong-path") {
		t.Fatalf("wrong-path cell = %d, want 400 naming wrong-path: %s", rec.Code, out)
	}
	if runs := s.harness.Runs(); runs != 0 {
		t.Fatalf("refused cell still simulated %d cells", runs)
	}
}

// within fails the test if fn has not returned after d, instead of letting
// a wedged pool hang the whole package until the go test timeout.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestExhaustPoolReleasesEveryWorker: pool-exhaustion chaos wedges every
// worker for the hold, then must free all of them. A one-shot release freed
// only one worker, so on a pool of two or more the rest stayed wedged and
// later requests (and Close) hung.
func TestExhaustPoolReleasesEveryWorker(t *testing.T) {
	s := New(Config{
		Parallel: 3,
		Logf:     func(string, ...any) {},
		Chaos:    ChaosConfig{ExhaustEvery: 1, ExhaustHold: 10 * time.Millisecond},
	})
	n := s.pool.Workers()
	for round := 0; round < 3; round++ {
		s.exhaustPool(10 * time.Millisecond)
		// n tasks that each wait for all n to start finish only if every
		// worker came back from the hold.
		var started sync.WaitGroup
		started.Add(n)
		within(t, 10*time.Second, "pool workers after the exhaustion hold", func() {
			var finished sync.WaitGroup
			finished.Add(n)
			for i := 0; i < n; i++ {
				if err := s.pool.Submit(context.Background(), func() {
					defer finished.Done()
					started.Done()
					started.Wait()
				}); err != nil {
					t.Error(err)
					finished.Done()
				}
			}
			finished.Wait()
		})
	}
	// The HTTP path: every request injects an exhaustion, and each one
	// still completes (distinct workloads, so none is a response-cache hit).
	for _, wl := range []string{"compress", "gcc", "go", "li"} {
		within(t, 60*time.Second, "/v1/sim under pool exhaustion", func() {
			if rec := getFrom(t, s, "/v1/sim?machine=baseline&width=4&workload="+wl); rec.Code != http.StatusOK {
				t.Errorf("%s under exhaustion = %d, want 200", wl, rec.Code)
			}
		})
	}
	within(t, 30*time.Second, "Close", s.Close)
}
