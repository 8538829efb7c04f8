package server

// Grid endpoint tests: the worker /v1/cell contract, coordinator routing
// over real HTTP workers (byte-identical to the single process), batch
// streaming (a cell observed before the sweep completes), the error
// taxonomy (bad spec 400, all-workers-down 503 + partial, disconnect
// cancels worker calls), and the shared result tier (a repeat sweep touches
// no worker).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/workload"
)

func postJSON(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	out, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec, out
}

func TestWorkerCellEndpoint(t *testing.T) {
	s := sharedServer()
	body, _ := json.Marshal(&grid.CellRequest{Config: machine.NewBaseline(4), Workload: "compress"})
	rec, out := postJSON(t, s, "/v1/cell", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("cell status = %d: %s", rec.Code, out)
	}
	var res grid.CellResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Result == nil || res.Sampled != nil {
		t.Fatalf("full cell returned wrong payload: %s", out)
	}
	want := (&grid.CellRequest{Config: machine.NewBaseline(4), Workload: "compress"}).Key()
	if res.Key != want {
		t.Fatalf("key = %q, want %q", res.Key, want)
	}
	// The worker's own cell cache makes this cell identical to a direct run.
	w, _ := workload.ByName("compress")
	direct, err := s.harness.RunCell(context.Background(), machine.NewBaseline(4), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.IPC() != direct.IPC() {
		t.Fatalf("cell IPC %v != direct IPC %v", res.Result.IPC(), direct.IPC())
	}
}

func TestWorkerCellEndpointSampled(t *testing.T) {
	s := sharedServer()
	body, _ := json.Marshal(&grid.CellRequest{
		Config:   machine.NewRBFull(4),
		Workload: "gzip",
		Sampled:  &experiments.SampleSpec{Samples: 4, Warmup: 1000, Measure: 1000},
	})
	rec, out := postJSON(t, s, "/v1/cell", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("sampled cell status = %d: %s", rec.Code, out)
	}
	var res grid.CellResult
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil || res.Result != nil {
		t.Fatalf("sampled cell returned wrong payload: %s", out)
	}
}

func TestWorkerCellEndpointRejects(t *testing.T) {
	s := sharedServer()
	cases := []string{
		"not json",
		`{"config": {"Name": ""}, "workload": "compress"}`,
		`{"config": ` + mustCfgJSON(t) + `, "workload": "nosuch"}`,
		`{"config": ` + mustCfgJSON(t) + `, "workload": "compress", "sampled": {"Samples": 1, "Measure": 10}}`,
	}
	for _, body := range cases {
		rec, out := postJSON(t, s, "/v1/cell", body)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("POST /v1/cell %q = %d, want 4xx (%s)", body, rec.Code, out)
		}
	}
}

func mustCfgJSON(t *testing.T) string {
	t.Helper()
	b, err := json.Marshal(machine.NewBaseline(4))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCoordinatorHTTPDifferential is the end-to-end acceptance check: a
// coordinator over two real HTTP worker servers renders experiments
// byte-identically to the single-process server — through /v1/experiment
// (the figures run distributed via the Runner interface) and through
// /v1/batch's artifact mode.
func TestCoordinatorHTTPDifferential(t *testing.T) {
	// MaxInflight is raised well past the router's concurrency: the default
	// (2×GOMAXPROCS) is 2 on a single-CPU machine, and a grid routing 8
	// cells at once into 2×2 admission slots sheds 429s until retries — and
	// occasionally the whole failover chain — exhaust. Admission control is
	// not what this test measures; byte-identity under distribution is.
	w1 := New(Config{Logf: func(string, ...any) {}, MaxInflight: 64})
	defer w1.Close()
	w2 := New(Config{Logf: func(string, ...any) {}, MaxInflight: 64})
	defer w2.Close()
	h1 := httptest.NewServer(w1.Handler())
	defer h1.Close()
	h2 := httptest.NewServer(w2.Handler())
	defer h2.Close()

	coord := New(Config{Workers: []string{h1.URL, h2.URL}, Logf: func(string, ...any) {}})
	defer coord.Close()

	fetch := func(s *Server, path string) []byte {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	want := fetch(sharedServer(), "/v1/experiment/fig11?format=text")
	got := fetch(coord, "/v1/experiment/fig11?format=text")
	if !bytes.Equal(want, got) {
		t.Fatalf("fig11 through the HTTP grid diverged:\n--- single\n%s\n--- grid\n%s", want, got)
	}
	batch := fetch(coord, "/v1/batch?artifact=fig11&format=text")
	if !bytes.Equal(want, batch) {
		t.Fatalf("fig11 through /v1/batch diverged:\n--- single\n%s\n--- batch\n%s", want, batch)
	}

	// Both workers actually served cells, and the coordinator reports them.
	snap := metricsOf(t, coord)
	if snap.Grid.Mode != "coordinator" || len(snap.Grid.Workers) != 2 {
		t.Fatalf("coordinator metrics wrong: %+v", snap.Grid)
	}
	for _, ws := range snap.Grid.Workers {
		if ws.Routed == 0 {
			t.Fatalf("worker %s served nothing — sweep not distributed: %+v", ws.Name, snap.Grid.Workers)
		}
		if ws.Breaker != "closed" {
			t.Fatalf("worker %s breaker %s after a clean sweep", ws.Name, ws.Breaker)
		}
	}
}

func metricsOf(t *testing.T, s *Server) MetricsSnapshot {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return snap
}

func TestLocalModeMetricsGrid(t *testing.T) {
	get(t, "/healthz")
	snap := metricsOf(t, sharedServer())
	if snap.Grid.Mode != "local" {
		t.Fatalf("grid mode = %q, want local", snap.Grid.Mode)
	}
	if len(snap.Grid.Workers) != 0 {
		t.Fatalf("local grid workers = %+v, want none", snap.Grid.Workers)
	}
}

// TestLocalBatchOneTier: a single-process server computes batch cells on
// its own harness and pool. Every cell is one pool submission and one
// cell-cache entry, and no second (router) tier holds a copy — for an axes
// sweep and for an artifact batch alike.
func TestLocalBatchOneTier(t *testing.T) {
	s := New(Config{Parallel: 1, Logf: func(string, ...any) {}})
	t.Cleanup(s.Close)
	serve := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	before := metricsOf(t, s)
	serve("/v1/batch?machines=baseline&widths=4&workloads=compress,gzip,mcf,parser")
	after := metricsOf(t, s)
	if n := after.Pool.Submitted - before.Pool.Submitted; n != 4 {
		t.Fatalf("4-cell batch made %d pool submissions, want 4", n)
	}
	if after.CellCache.Entries != 4 || after.Grid.SharedCache.Entries != 0 {
		t.Fatalf("after a 4-cell batch: cell_cache %d entries, grid.shared_cache %d, want 4 and 0",
			after.CellCache.Entries, after.Grid.SharedCache.Entries)
	}

	before = after
	batch := serve("/v1/batch?artifact=fig9&format=text")
	after = metricsOf(t, s)
	cells := int64(after.CellCache.Entries - before.CellCache.Entries)
	if cells == 0 || after.Pool.Submitted-before.Pool.Submitted != cells ||
		after.CellCache.Misses-before.CellCache.Misses != cells {
		t.Fatalf("fig9 batch: %d new cells, %d pool submissions, %d cell misses; want one each per cell",
			cells, after.Pool.Submitted-before.Pool.Submitted, after.CellCache.Misses-before.CellCache.Misses)
	}
	if after.Grid.SharedCache.Entries != 0 {
		t.Fatalf("fig9 batch filled a second tier: grid.shared_cache %d entries", after.Grid.SharedCache.Entries)
	}
	if exp := serve("/v1/experiment/fig9?format=text"); !bytes.Equal(batch, exp) {
		t.Fatalf("fig9 batch text differs from /v1/experiment:\n%s\n---\n%s", batch, exp)
	}
}

// canned builds a fake transport result from one real computed cell,
// computed once: fake workers call it from concurrent goroutines, which is
// also why a failure is t.Error, not t.Fatal.
var (
	cannedOnce   sync.Once
	cannedResult *core.Result
	cannedErr    error
)

func canned(t *testing.T) *core.Result {
	t.Helper()
	cannedOnce.Do(func() {
		h := experiments.NewHarness(1)
		defer h.Close()
		w, _ := workload.ByName("compress")
		cannedResult, cannedErr = h.RunCell(context.Background(), machine.NewBaseline(4), w)
	})
	if cannedErr != nil {
		t.Error(cannedErr)
	}
	return cannedResult
}

// fakeWorker is an injectable transport for coordinator tests.
type fakeWorker struct {
	name  string
	calls atomic.Int64
	fn    func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error)
}

func (f *fakeWorker) Name() string { return f.name }
func (f *fakeWorker) RunCell(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
	f.calls.Add(1)
	return f.fn(ctx, req)
}

func fakeCoordinator(t *testing.T, fw *fakeWorker) *Server {
	t.Helper()
	s := New(Config{
		Workers:      []string{"fake://" + fw.name},
		NewTransport: func(base string) grid.Transport { return fw },
		Logf:         func(string, ...any) {},
	})
	t.Cleanup(s.Close)
	return s
}

// TestBatchStreamsBeforeCompletion proves SSE streaming is incremental: the
// first cell event is read from the open response stream while the second
// cell is still blocked inside the (fake) worker; only after observing the
// event does the test release the gate and let the sweep finish.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	gate := make(chan struct{})
	fw := &fakeWorker{name: "gated"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		if req.Workload != "compress" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf&format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	events := []string{}
	sawCellEarly := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		ev := strings.TrimPrefix(line, "event: ")
		events = append(events, ev)
		if ev == "cell" && !sawCellEarly {
			sawCellEarly = true
			close(gate) // first cell observed while the second is still blocked
		}
		if ev == "done" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawCellEarly {
		t.Fatalf("no cell event observed before completion: %v", events)
	}
	cells := 0
	for _, ev := range events {
		if ev == "cell" {
			cells++
		}
	}
	if cells != 2 || events[len(events)-1] != "done" {
		t.Fatalf("stream shape wrong: %v", events)
	}
}

// TestBatchNDJSON checks the line-oriented stream parses event by event and
// terminates with a complete done record.
func TestBatchNDJSON(t *testing.T) {
	fw := &fakeWorker{name: "nd"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	req := httptest.NewRequest("GET", "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf&format=ndjson", nil)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var done *BatchDone
	cells := 0
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var ev struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		switch ev.Event {
		case "cell":
			cells++
		case "done":
			done = &BatchDone{}
			if err := json.Unmarshal(ev.Data, done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cells != 2 || done == nil || done.Cells != 2 || done.Total != 2 || done.Partial {
		t.Fatalf("ndjson stream wrong: cells=%d done=%+v", cells, done)
	}
}

// TestBatchAxesAggregate: json and text aggregate forms, sorted by key.
func TestBatchAxesAggregate(t *testing.T) {
	fw := &fakeWorker{name: "agg"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	req := httptest.NewRequest("GET", "/v1/batch?machines=baseline,rb-full&widths=4&workloads=compress,mcf", nil)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Count int              `json:"count"`
		Cells []BatchCellEvent `json:"cells"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 4 || len(out.Cells) != 4 {
		t.Fatalf("count = %d, cells = %d, want 4", out.Count, len(out.Cells))
	}
	for i := 1; i < len(out.Cells); i++ {
		if out.Cells[i-1].Key >= out.Cells[i].Key {
			t.Fatalf("cells not sorted: %q >= %q", out.Cells[i-1].Key, out.Cells[i].Key)
		}
	}
	req = httptest.NewRequest("GET", "/v1/batch?machines=baseline&widths=4&workloads=compress&format=text", nil)
	rec = httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "batch: 1 cells") {
		t.Fatalf("text batch = %d %q", rec.Code, rec.Body.String())
	}
}

func TestBatchPostSpec(t *testing.T) {
	fw := &fakeWorker{name: "post"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	rec, out := postJSON(t, coord, "/v1/batch",
		`{"machines": ["baseline"], "widths": [4], "workloads": ["compress"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST batch = %d: %s", rec.Code, out)
	}
	rec, out = postJSON(t, coord, "/v1/batch", `{"machines": not-json`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad POST body = %d, want 400: %s", rec.Code, out)
	}
	rec, out = postJSON(t, coord, "/v1/batch?artifact=fig9",
		`{"machines": ["baseline"]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("artifact+spec = %d, want 400: %s", rec.Code, out)
	}
}

// TestBatchAllWorkersDownPartial: when the grid degrades mid-sweep, the
// aggregate response is a 503 carrying the partial flag and the cells that
// did complete.
func TestBatchAllWorkersDownPartial(t *testing.T) {
	fw := &fakeWorker{name: "flaky"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		if req.Workload == "mcf" {
			return nil, fmt.Errorf("connection refused")
		}
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	req := httptest.NewRequest("GET", "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf", nil)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded batch = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Error   string           `json:"error"`
		Partial bool             `json:"partial"`
		Cells   []BatchCellEvent `json:"cells"`
		Total   int              `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial || out.Error == "" || len(out.Cells) != 1 || out.Total != 2 {
		t.Fatalf("partial payload wrong: %+v", out)
	}
}

// TestBatchDisconnectCancelsWorkers: closing the client connection cancels
// the request context, which cancels the in-flight worker call.
func TestBatchDisconnectCancelsWorkers(t *testing.T) {
	canceled := make(chan struct{})
	fw := &fakeWorker{name: "hang"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	}
	coord := fakeCoordinator(t, fw)
	hs := httptest.NewServer(coord.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET",
		hs.URL+"/v1/batch?machines=baseline&widths=4&workloads=compress&format=sse", nil)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) //rblint:allow determinism
	cancel()
	select {
	case <-canceled:
	case <-time.After(10 * time.Second): //rblint:allow determinism
		t.Fatal("worker call not canceled after client disconnect")
	}
}

// TestBatchSharedTierServesRepeats: a repeated sweep is served entirely
// from the coordinator's shared tier — zero worker calls — and /metrics
// reports the hits.
func TestBatchSharedTierServesRepeats(t *testing.T) {
	fw := &fakeWorker{name: "tier"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	coord := fakeCoordinator(t, fw)
	run := func() {
		req := httptest.NewRequest("GET", "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf", nil)
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
		}
	}
	run()
	after := fw.calls.Load()
	if after != 2 {
		t.Fatalf("first sweep made %d worker calls, want 2", after)
	}
	run()
	if fw.calls.Load() != after {
		t.Fatalf("repeat sweep reached the workers: %d calls, want %d", fw.calls.Load(), after)
	}
	snap := metricsOf(t, coord)
	if snap.Grid.SharedCache.Hits+snap.Grid.SharedCache.Joins < 2 {
		t.Fatalf("shared tier reports no hits: %+v", snap.Grid.SharedCache)
	}
}

// TestSimAdaptiveEndpoint: the ci-target mode returns the convergence
// trail, and its response caches like every other /v1/sim form.
func TestSimAdaptiveEndpoint(t *testing.T) {
	rec, body := get(t, "/v1/sim?workload=gzip&machine=rb-full&samples=2&warmup=1000&measure=1000&ci-target=0.9")
	if rec.Code != http.StatusOK {
		t.Fatalf("adaptive sim = %d: %s", rec.Code, body)
	}
	var out struct {
		MeanIPC   float64 `json:"MeanIPC"`
		RelCI     float64 `json:"rel_ci"`
		Converged bool    `json:"Converged"`
		Rounds    []struct {
			Samples int `json:"Samples"`
		} `json:"Rounds"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("adaptive sim JSON: %v\n%s", err, body)
	}
	if !out.Converged || len(out.Rounds) == 0 || out.MeanIPC <= 0 {
		t.Fatalf("adaptive payload wrong: %s", body)
	}
}
