package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/leakcheck"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestMain closes the shared server once the tests are done, so the leak
// check counts only what a test left running.
func TestMain(m *testing.M) {
	leakcheck.Main(m, func() {
		if testSrv != nil {
			testSrv.Close()
		}
	})
}

// testServer builds one server per test binary: the harness cell cache makes
// repeated experiments nearly free, so sharing it keeps the suite fast.
var (
	testSrvOnce sync.Once
	testSrv     *Server
)

func sharedServer() *Server {
	testSrvOnce.Do(func() {
		testSrv = New(Config{Logf: func(string, ...any) {}})
	})
	return testSrv
}

func get(t *testing.T, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	sharedServer().Handler().ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	rec, body := get(t, "/healthz")
	if rec.Code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 \"ok\\n\"", rec.Code, body)
	}
}

func TestMetricsShape(t *testing.T) {
	get(t, "/healthz") // guarantee at least one completed request
	rec, body := get(t, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap.Requests < 1 || snap.Status2xx < 1 {
		t.Fatalf("metrics counters empty after traffic: %+v", snap)
	}
	if snap.Pool.Workers < 1 {
		t.Fatalf("pool workers = %d, want >= 1", snap.Pool.Workers)
	}
	if snap.Latency.Count < 1 {
		t.Fatalf("latency sketch empty after traffic: %+v", snap.Latency)
	}
}

func TestWorkloadsListing(t *testing.T) {
	rec, body := get(t, "/v1/workloads")
	if rec.Code != http.StatusOK {
		t.Fatalf("workloads status = %d: %s", rec.Code, body)
	}
	var wls []WorkloadInfo
	if err := json.Unmarshal(body, &wls); err != nil {
		t.Fatalf("workloads JSON: %v", err)
	}
	if len(wls) != 20 {
		t.Fatalf("listed %d workloads, want 20", len(wls))
	}
	for _, w := range wls {
		if w.Name == "" || w.Suite == "" {
			t.Fatalf("incomplete entry: %+v", w)
		}
	}
}

// TestExperimentTextMatchesCLI is the core serving guarantee: the text
// rendering of an experiment is byte-identical to rbexp's output for the
// same artifact (scripts/ci.sh diffs the real binaries the same way).
func TestExperimentTextMatchesCLI(t *testing.T) {
	rec, body := get(t, "/v1/experiment/fig11?format=text")
	if rec.Code != http.StatusOK {
		t.Fatalf("fig11 status = %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	h := experiments.NewHarness(0)
	defer h.Close()
	f, err := experiments.Figure11(context.Background(), h)
	if err != nil {
		t.Fatalf("Figure11: %v", err)
	}
	var want bytes.Buffer
	if err := f.Render(&want); err != nil {
		t.Fatalf("render: %v", err)
	}
	want.WriteByte('\n') // rbexp prints a blank line after each artifact
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served text differs from CLI rendering:\nserved:\n%s\nwant:\n%s", body, want.Bytes())
	}
}

func TestExperimentJSONAndResponseCache(t *testing.T) {
	before := sharedServer().resp.Stats()
	rec, body := get(t, "/v1/experiment/fig11?format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("fig11 json status = %d: %s", rec.Code, body)
	}
	var fig experiments.IPCFigure
	if err := json.Unmarshal(body, &fig); err != nil {
		t.Fatalf("fig11 JSON: %v", err)
	}
	if fig.Width != 4 || len(fig.Workloads) == 0 || len(fig.IPC) == 0 {
		t.Fatalf("fig11 JSON incomplete: width=%d workloads=%d machines=%d",
			fig.Width, len(fig.Workloads), len(fig.IPC))
	}
	rec2, body2 := get(t, "/v1/experiment/fig11?format=json")
	if rec2.Code != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatal("repeated request not byte-identical")
	}
	after := sharedServer().resp.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("response cache hits did not grow: before=%+v after=%+v", before, after)
	}

	// Tables 2 and 3 are served as exactly {"title", "text"}, the text being
	// the table rbexp prints.
	for _, c := range []struct {
		name, title string
		render      func(io.Writer) error
	}{
		{"table2", "Table 2. Machine configuration", experiments.RenderTable2},
		{"table3", "Table 3. Instruction class latencies", experiments.RenderTable3},
	} {
		rec, body := get(t, "/v1/experiment/"+c.name+"?format=json")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s json status = %d: %s", c.name, rec.Code, body)
		}
		var got map[string]string
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s JSON: %v\n%s", c.name, err, body)
		}
		var text bytes.Buffer
		if err := c.render(&text); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"title": c.title, "text": text.String()}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s JSON = %q, want %q", c.name, got, want)
		}
	}
}

// TestUnknownArtifactListsTable: an unknown artifact is a 404 on both
// artifact endpoints, and the error names every artifact of the table plus
// ipc.
func TestUnknownArtifactListsTable(t *testing.T) {
	for _, path := range []string{"/v1/experiment/fig99", "/v1/batch?artifact=fig99"} {
		rec, body := get(t, path)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404 (%s)", path, rec.Code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("GET %s error body malformed: %s", path, body)
		}
		for _, name := range append(experiments.ArtifactNames(), "ipc") {
			if !strings.Contains(e["error"], name) {
				t.Errorf("GET %s error %q does not list %q", path, e["error"], name)
			}
		}
	}
}

func TestExperimentParameterized(t *testing.T) {
	rec, body := get(t, "/v1/experiment/ipc?width=2&suite=SPECint95&format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("ipc status = %d: %s", rec.Code, body)
	}
	var fig experiments.IPCFigure
	if err := json.Unmarshal(body, &fig); err != nil {
		t.Fatalf("ipc JSON: %v", err)
	}
	if fig.Width != 2 || fig.Suite != "SPECint95" {
		t.Fatalf("ipc returned width=%d suite=%q", fig.Width, fig.Suite)
	}
}

func TestExperimentValidation(t *testing.T) {
	cases := []struct {
		path string
		code int
	}{
		{"/v1/experiment/fig99", http.StatusNotFound},
		{"/v1/experiment/fig9?format=xml", http.StatusBadRequest},
		{"/v1/experiment/ipc?width=3", http.StatusBadRequest},
		{"/v1/experiment/ipc?width=abc", http.StatusBadRequest},
		{"/v1/experiment/ipc?suite=SPECfp", http.StatusBadRequest},
		{"/v1/sim", http.StatusBadRequest},
		{"/v1/sim?workload=nope", http.StatusNotFound},
		{"/v1/sim?workload=compress&machine=warp", http.StatusBadRequest},
		{"/v1/sim?workload=compress&no-bypass-levels=9", http.StatusBadRequest},
		{"/v1/sim?workload=compress&machine=baseline&width=4&no-bypass-levels=1", http.StatusBadRequest},
		{"/v1/sim?workload=compress&check=maybe", http.StatusBadRequest},
		{"/v1/check?layer=vibes", http.StatusNotFound},
		{"/v1/check?seed=NaN", http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, body := get(t, c.path)
		if rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d (%s)", c.path, rec.Code, c.code, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("GET %s error body malformed: %s", c.path, body)
		}
	}
}

func TestSimEndpoint(t *testing.T) {
	rec, body := get(t, "/v1/sim?workload=compress&machine=rb-full&width=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("sim status = %d: %s", rec.Code, body)
	}
	var res SimResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("sim JSON: %v", err)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Fatalf("sim IPC = %v, want in (0, 4]", res.IPC)
	}
	if res.Backend != "event" {
		t.Fatalf("sim backend = %q, want event (the default)", res.Backend)
	}
	// Same parameters again: byte-identical (cache or not, determinism
	// guarantees it).
	_, body2 := get(t, "/v1/sim?workload=compress&machine=rb-full&width=4")
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated sim not byte-identical")
	}
	// Restricting bypass must not raise IPC.
	_, body3 := get(t, "/v1/sim?workload=compress&machine=ideal&width=4&no-bypass-levels=1,2,3")
	var res3 SimResponse
	if err := json.Unmarshal(body3, &res3); err != nil {
		t.Fatalf("sim JSON: %v", err)
	}
	_, body4 := get(t, "/v1/sim?workload=compress&machine=ideal&width=4")
	var res4 SimResponse
	if err := json.Unmarshal(body4, &res4); err != nil {
		t.Fatalf("sim JSON: %v", err)
	}
	if res3.IPC > res4.IPC {
		t.Fatalf("removing all bypass levels raised IPC: %v > %v", res3.IPC, res4.IPC)
	}
}

// TestSimWrongPathModelsWrongPath: /v1/sim?wrong-path=true runs with a
// fetch-order emulator of the workload, so wrong-path fetch is modeled
// exactly as a direct core.Run with one models it (rbsim -wrong-path),
// instead of silently degrading to the stall model.
func TestSimWrongPathModelsWrongPath(t *testing.T) {
	rec, body := get(t, "/v1/sim?workload=gcc00&machine=rb-full&width=8&wrong-path=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("sim status = %d: %s", rec.Code, body)
	}
	var res SimResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("sim JSON: %v", err)
	}
	if res.WrongPathIssued == 0 {
		t.Fatal("wrong-path=true issued no wrong-path instructions")
	}
	wl, _ := workload.ByName("gcc00")
	prog, err := wl.Program()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wl.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(machine.NewRBFull(8), wl.Name, dec, core.Options{WrongPath: emu.New(prog)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Result, want) {
		t.Fatalf("served result differs from core.Run with a fetch-order emulator:\n got %+v\nwant %+v", res.Result, want)
	}
}

func TestSimSampledEndpoint(t *testing.T) {
	rec, body := get(t, "/v1/sim?workload=mcf&machine=rb-full&width=8&samples=10&warmup=2000&measure=2000")
	if rec.Code != http.StatusOK {
		t.Fatalf("sampled sim status = %d: %s", rec.Code, body)
	}
	var res SampledSimResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("sampled sim JSON: %v", err)
	}
	if res.MeanIPC <= 0 || res.MeanIPC > 8 {
		t.Fatalf("sampled IPC = %v, want in (0, 8]", res.MeanIPC)
	}
	if len(res.CellIPCs) != 10 || res.CI95 <= 0 {
		t.Fatalf("sampled cells = %d ci = %v, want 10 cells with a positive CI", len(res.CellIPCs), res.CI95)
	}
	// Same parameters again: byte-identical (determinism guarantees it even
	// without the response cache).
	_, body2 := get(t, "/v1/sim?workload=mcf&machine=rb-full&width=8&samples=10&warmup=2000&measure=2000")
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated sampled sim not byte-identical")
	}
}

func TestCheckEndpoint(t *testing.T) {
	rec, body := get(t, "/v1/check?layer=converter")
	if rec.Code != http.StatusOK {
		t.Fatalf("check status = %d: %s", rec.Code, body)
	}
	var res CheckResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("check JSON: %v", err)
	}
	if !res.Passed || len(res.Reports) == 0 {
		t.Fatalf("converter layer: passed=%v reports=%d", res.Passed, len(res.Reports))
	}
	for _, r := range res.Reports {
		if !r.Passed {
			t.Fatalf("check failed: %+v", r)
		}
	}
}

// TestUnknownCheckLayerListsTable: the /v1/check 404 names "all" and then
// every layer of check.Layers, in table order.
func TestUnknownCheckLayerListsTable(t *testing.T) {
	rec, body := get(t, "/v1/check?layer=nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown layer status = %d: %s", rec.Code, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	const want = `unknown layer "nope" (want all, oracle, invariants, backends, adders, converter, ops, or faults)`
	if e.Error != want {
		t.Errorf("404 body %q, want %q", e.Error, want)
	}
	rest := e.Error
	for _, l := range check.Layers {
		i := strings.Index(rest, " "+l.Name)
		if i < 0 {
			t.Fatalf("404 %q does not name layer %q after the layers before it", e.Error, l.Name)
		}
		rest = rest[i+len(l.Name)+1:]
	}
}

// TestBackpressure drives the admission-control middleware directly so the
// saturation point is deterministic: one request wedged inside the handler,
// every further one shed with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	s := New(Config{Parallel: 1, MaxInflight: 1, Logf: func(string, ...any) {}})
	defer s.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	h := s.limited(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/v1/sim", nil))
	}()
	<-entered
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/sim", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After header")
	}
	close(release)
	if s.met.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.met.rejected.Load())
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{Parallel: 1, Logf: func(string, ...any) {}})
	defer s.Close()
	h := s.observed(func(w http.ResponseWriter, r *http.Request) {
		panic("synthetic failure")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/sim", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	var e map[string]string
	body, _ := io.ReadAll(rec.Result().Body)
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "synthetic failure") {
		t.Fatalf("500 body = %s", body)
	}
	if s.met.panics.Load() != 1 || s.met.status5xx.Load() != 1 {
		t.Fatalf("panic counters = %d/%d, want 1/1", s.met.panics.Load(), s.met.status5xx.Load())
	}
}

func TestRequestTimeout(t *testing.T) {
	s := New(Config{Parallel: 1, RequestTimeout: 10 * time.Millisecond, Logf: func(string, ...any) {}})
	defer s.Close()
	h := s.observed(s.limited(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		s.failRequest(w, r, r.Context().Err())
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/sim", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d, want 504", rec.Code)
	}
	if s.met.timeouts.Load() != 1 {
		t.Fatalf("timeout counter = %d, want 1", s.met.timeouts.Load())
	}
}
