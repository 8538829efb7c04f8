package server

// Cell-path tests: one name identifies one config per process (the alias
// guard answers 400, never the other config's result), a body naming a
// field the wire format does not have or a config no machine can be built
// from is refused, and pool-exhaustion chaos
// releases every wedged worker.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/isa"
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

// withConfigField sets field to true in a cell body's config object.
func withConfigField(t *testing.T, body, field string) string {
	t.Helper()
	var req map[string]any
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	req["config"].(map[string]any)[field] = true
	b, err := json.Marshal(req)
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
	h, hStock := experiments.NewHarness(1), experiments.NewHarness(1)
	defer h.Close()
	defer hStock.Close()
	want, err := h.RunCell(ctx, small, w)
	if err != nil {
		t.Fatal(err)
	}
	stock, err := hStock.RunCell(ctx, machine.NewRBFull(8), w)
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

// TestCellWrongPathRefused: wrong-path fetch is a run mode, not part of the
// machine, so a cell body asking for it names a field the wire format does
// not have; /v1/cell refuses it instead of silently running a stall-model
// cell.
func TestCellWrongPathRefused(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	body := withConfigField(t, cellBody(t, machine.NewBaseline(4), "compress"), "ModelWrongPath")
	rec, out := postJSON(t, s, "/v1/cell", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(string(out), `unknown field \"ModelWrongPath\"`) {
		t.Fatalf("wrong-path cell = %d, want 400 naming the unknown field: %s", rec.Code, out)
	}
	if runs := s.harness.Runs(); runs != 0 {
		t.Fatalf("refused cell still simulated %d cells", runs)
	}
}

// TestCellUnknownFieldRefused: a sampled cell whose config asks for the
// datapath check — a run mode the wire format does not carry — gets a 400
// and is never simulated, and the server keeps answering.
func TestCellUnknownFieldRefused(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	b, err := json.Marshal(&grid.CellRequest{
		Config:   machine.NewRBFull(8),
		Workload: "mcf",
		Sampled:  &experiments.SampleSpec{Samples: 4, Warmup: 1000, Measure: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, out := postJSON(t, s, "/v1/cell", withConfigField(t, string(b), "DatapathCheck"))
	if rec.Code != http.StatusBadRequest || !strings.Contains(string(out), `unknown field \"DatapathCheck\"`) {
		t.Fatalf("DatapathCheck cell = %d, want 400 naming the unknown field: %s", rec.Code, out)
	}
	if runs := s.harness.Runs(); runs != 0 {
		t.Fatalf("refused cell still simulated %d cells", runs)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("/healthz after the refused cell = %d", hrec.Code)
	}
}

// TestCellBadConfigRefused: /v1/cell is a wire format, so a config no
// machine can be built from — an unknown kind, a converter finishing
// before or never after its adder, a cache without sets, a hierarchy
// without banks, a negative pipeline latency, or a size past its bound —
// is refused with 400 by machine.Config.Validate, never simulated, and the
// server stays up. Before Validate checked them, the unknown kind, the
// memory geometries and the oversized L2 (a makeslice panic) panicked on a
// pool goroutine and took the process down.
func TestCellBadConfigRefused(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	for _, tc := range []struct {
		name, want string
		edit       func(*machine.Config)
	}{
		{"kind9", "unknown kind", func(c *machine.Config) { c.Kind = 9 }},
		{"tcextra-1", "TC extra -1", func(c *machine.Config) { c.Latencies[isa.LatIntArith].TCExtra = -1 }},
		{"tcextra-2", "TC extra -2", func(c *machine.Config) { c.Latencies[isa.LatIntArith].TCExtra = -2 }},
		{"l1d0", "set count 0", func(c *machine.Config) { c.Mem.L1D.SizeBytes = 0 }},
		{"l2banks0", "L2 banks", func(c *machine.Config) { c.Mem.L2Banks = 0 }},
		{"membanks0", "memory banks", func(c *machine.Config) { c.Mem.MemBanks = 0 }},
		{"front-5", "front latency -5", func(c *machine.Config) { c.FrontLatency = -5 }},
		{"width128", "width 128", func(c *machine.Config) { c.Width, c.NumSchedulers, c.SchedulerSize = 128, 64, 2 }},
		{"window1M", "window 1048576", func(c *machine.Config) { c.WindowSize, c.SchedulerSize = 1<<20, 1<<18 }},
		{"schedwrap", "4611686018427387906 schedulers", func(c *machine.Config) {
			c.NumSchedulers, c.SelectWidth, c.SchedulerSize, c.WindowSize = 2+1<<62, 4, 32, 64
		}},
		{"frontwidth", "front width 1099511627776", func(c *machine.Config) { c.FrontWidth = 1 << 40 }},
		{"retirewidth", "retire width 1099511627776", func(c *machine.Config) { c.RetireWidth = 1 << 40 }},
		{"frontlat", "front latency 1099511627776", func(c *machine.Config) { c.FrontLatency = 1 << 40 }},
		{"l2huge", "cache larger than 16777216 bytes", func(c *machine.Config) { c.Mem.L2.SizeBytes = 1 << 62 }},
		{"l2ways128", "more than 64 ways", func(c *machine.Config) { c.Mem.L2.Ways = 128 }},
		{"l2banks", "more than 1024 L2 or memory banks", func(c *machine.Config) { c.Mem.L2Banks = 1 << 40 }},
		{"membanks", "more than 1024 L2 or memory banks", func(c *machine.Config) { c.Mem.MemBanks = 1 << 40 }},
	} {
		cfg := machine.NewRBFull(8)
		cfg.Name = "RB-full-8-" + tc.name
		tc.edit(&cfg)
		rec, out := postJSON(t, s, "/v1/cell", cellBody(t, cfg, "compress"))
		if rec.Code != http.StatusBadRequest || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s cell = %d, want 400 mentioning %q: %s", tc.name, rec.Code, tc.want, out)
		}
	}
	if runs := s.harness.Runs(); runs != 0 {
		t.Fatalf("refused cells still simulated %d cells", runs)
	}
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("/healthz after the refused cells = %d", hrec.Code)
	}
}

// TestWarmCellAnswersOnExhaustedPool: a repeated /v1/cell is a harness
// cache hit, answered on the request goroutine, so it returns 200 with the
// first answer's body while pool-exhaustion chaos holds every worker, and
// it submits nothing to the pool.
func TestWarmCellAnswersOnExhaustedPool(t *testing.T) {
	s := privateServer(t, Config{Parallel: 2})
	body := cellBody(t, machine.NewRBFull(8), "compress")
	rec, first := postJSON(t, s, "/v1/cell", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold cell = %d: %s", rec.Code, first)
	}
	// The cold cell's pool task counts out of Depth only after its function
	// returns, which can be after the handler has answered: wait for it, or
	// it is still counted beside the exhaustion's blockers below.
	for deadline := time.Now().Add(time.Second); s.pool.Depth() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool depth %d a second after the cold cell, want 0", s.pool.Depth())
		}
	}
	const hold = 2 * time.Second
	s.exhaustPool(hold)
	if d, n := s.pool.Depth(), s.pool.Workers(); d != int64(n) {
		t.Fatalf("exhaustPool holds %d tasks, want all %d workers", d, n)
	}
	submitted := s.pool.Submitted()
	within(t, hold/2, "warm /v1/cell on an exhausted pool", func() {
		rec, out := postJSON(t, s, "/v1/cell", body)
		if rec.Code != http.StatusOK || string(out) != string(first) {
			t.Errorf("warm cell = %d, want 200 and the cold body: %s", rec.Code, out)
		}
	})
	if got := s.pool.Submitted(); got != submitted {
		t.Errorf("warm cell submitted %d pool tasks, want 0", got-submitted)
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
