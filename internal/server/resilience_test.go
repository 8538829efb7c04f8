package server

// Resilience tests (DESIGN.md §17): worker registration, durable journaled
// batches, crash-resume with zero re-dispatch, and batch progress records.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
)

// resilientCoordinator builds a coordinator with a journal directory and an
// injectable transport shared by every worker URL.
func resilientCoordinator(t *testing.T, dir string, fw *fakeWorker) *Server {
	t.Helper()
	s := New(Config{
		Workers:      []string{"fake://" + fw.name},
		NewTransport: func(base string) grid.Transport { return fw },
		JournalDir:   dir,
		Logf:         func(string, ...any) {},
	})
	t.Cleanup(s.Close)
	return s
}

// TestRegisterEndpoint: a worker heartbeat joins the registry and the
// coordinator immediately routes cells to it; local mode refuses
// registration.
func TestRegisterEndpoint(t *testing.T) {
	fw := &fakeWorker{name: "dynamic"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s := New(Config{
		Coordinator:  true, // no seed workers: the grid starts empty
		NewTransport: func(base string) grid.Transport { return fw },
		Logf:         func(string, ...any) {},
	})
	t.Cleanup(s.Close)

	// Before any registration the grid has no live workers.
	rec, _ := postJSON(t, s, "/v1/batch?machines=baseline&widths=4&workloads=compress", "")
	if rec.Code != 503 {
		t.Fatalf("batch on empty grid = %d, want 503", rec.Code)
	}

	rec, body := postJSON(t, s, "/v1/register", `{"url": "fake://dynamic"}`)
	if rec.Code != 200 {
		t.Fatalf("register = %d: %s", rec.Code, body)
	}
	var reg struct {
		Joined          bool    `json:"joined"`
		IntervalSeconds float64 `json:"interval_seconds"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if !reg.Joined || reg.IntervalSeconds <= 0 {
		t.Fatalf("register response = %+v, want joined with a positive interval", reg)
	}

	rec, body = postJSON(t, s, "/v1/batch?machines=baseline&widths=4&workloads=compress", "")
	if rec.Code != 200 {
		t.Fatalf("batch after register = %d: %s", rec.Code, body)
	}
	if fw.calls.Load() == 0 {
		t.Fatal("registered worker received no cells")
	}

	// A repeat beat refreshes rather than rejoins.
	_, body = postJSON(t, s, "/v1/register", `{"url": "fake://dynamic"}`)
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Joined {
		t.Fatal("second heartbeat reported a fresh join")
	}

	// Local mode has no registry to join.
	local := New(Config{Logf: func(string, ...any) {}})
	t.Cleanup(local.Close)
	rec, _ = postJSON(t, local, "/v1/register", `{"url": "fake://x"}`)
	if rec.Code != 400 {
		t.Fatalf("local-mode register = %d, want 400", rec.Code)
	}
}

// TestJournalResumeZeroRedispatch is the differential acceptance proof for
// durable batches: a batch interrupted by a failing cell journals its
// completed cells; a fresh coordinator over the same journal directory
// resumes it, re-dispatching ONLY the missing cell (the transport call
// count proves it), and the completed output is byte-identical to an
// uninterrupted run of the same spec.
func TestJournalResumeZeroRedispatch(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/batch?machines=baseline&widths=4&workloads=compress,gzip,mcf,parser&format=text"

	// Run 1: mcf fails, so the batch fails after journaling the other three.
	fw1 := &fakeWorker{name: "w"}
	fw1.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		if req.Workload == "mcf" {
			return nil, errors.New("worker lost mid-cell")
		}
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s1 := resilientCoordinator(t, dir, fw1)
	rec, _ := postJSON(t, s1, query, "")
	if rec.Code == 200 {
		t.Fatalf("interrupted batch = %d, want failure", rec.Code)
	}
	id := rec.Header().Get("X-Batch-Id")
	if id == "" {
		t.Fatal("no X-Batch-Id on a journaled batch")
	}
	s1.Close()

	rep, err := grid.ReadJournal(s1.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done || len(rep.Cells) != 3 {
		t.Fatalf("interrupted journal: done=%v cells=%d, want incomplete with 3 cells", rep.Done, len(rep.Cells))
	}

	// Run 2: a fresh coordinator resumes. Only the missing mcf cell may
	// reach the transport.
	fw2 := &fakeWorker{name: "w"}
	var mu sync.Mutex
	var redispatched []string
	fw2.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		mu.Lock()
		redispatched = append(redispatched, req.Workload)
		mu.Unlock()
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s2 := resilientCoordinator(t, dir, fw2)
	if err := s2.ResumeJournals(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fw2.calls.Load(); got != 1 {
		t.Fatalf("resume re-dispatched %d cells (%v), want exactly the 1 missing cell", got, redispatched)
	}
	if len(redispatched) != 1 || redispatched[0] != "mcf" {
		t.Fatalf("resume re-dispatched %v, want [mcf]", redispatched)
	}

	final, err := grid.ReadJournal(s2.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || len(final.Cells) != 4 {
		t.Fatalf("resumed journal: done=%v cells=%d, want done with 4 cells", final.Done, len(final.Cells))
	}
	resumedOut, err := os.ReadFile(s2.journalOutPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if metricsOf(t, s2).Journal.Resumed != 1 {
		t.Fatal("metrics did not count the resumed batch")
	}
	// Resuming again is a no-op: the journal is done and rendered.
	if err := s2.ResumeJournals(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fw2.calls.Load(); got != 1 {
		t.Fatalf("second resume re-dispatched cells: %d calls", got)
	}
	s2.Close()

	// Run 3: the same spec, uninterrupted, on a pristine coordinator. Its
	// response must match the resumed batch's rendered output byte-for-byte.
	fw3 := &fakeWorker{name: "w"}
	fw3.fn = fw2.fn
	s3 := resilientCoordinator(t, t.TempDir(), fw3)
	rec, body := postJSON(t, s3, query, "")
	if rec.Code != 200 {
		t.Fatalf("uninterrupted batch = %d: %s", rec.Code, body)
	}
	if string(body) != string(resumedOut) {
		t.Fatalf("resumed output diverges from uninterrupted run:\n--- resumed ---\n%s--- serial ---\n%s", resumedOut, body)
	}
}

// TestJournalCompleteBatchSkipsResume: a batch that finished cleanly (done
// marker + rendered output) is listed but never re-run on restart.
func TestJournalCompleteBatchSkipsResume(t *testing.T) {
	dir := t.TempDir()
	fw := &fakeWorker{name: "w"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s := resilientCoordinator(t, dir, fw)
	rec, _ := postJSON(t, s, "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf", "")
	if rec.Code != 200 {
		t.Fatalf("batch = %d", rec.Code)
	}
	id := rec.Header().Get("X-Batch-Id")
	if _, err := os.Stat(s.journalOutPath(id)); err != nil {
		t.Fatalf("no rendered output beside the journal: %v", err)
	}

	// The listing reports it done.
	req := httptest.NewRequest("GET", "/v1/batches", nil)
	lrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(lrec, req)
	if lrec.Code != 200 {
		t.Fatalf("batches listing = %d", lrec.Code)
	}
	var listing struct {
		Count   int         `json:"count"`
		Batches []BatchInfo `json:"batches"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 1 || !listing.Batches[0].Done || listing.Batches[0].Cells != 2 || !listing.Batches[0].Sweep {
		t.Fatalf("listing = %+v, want one done 2-cell sweep", listing)
	}
	s.Close()

	fw2 := &fakeWorker{name: "w"}
	fw2.fn = fw.fn
	s2 := resilientCoordinator(t, dir, fw2)
	if err := s2.ResumeJournals(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fw2.calls.Load() != 0 {
		t.Fatalf("restart re-ran a completed batch: %d calls", fw2.calls.Load())
	}
}

// TestBatchProgressEvents: a streamed batch with a short progress interval
// emits progress records carrying done counts and elapsed time, and the
// done record carries elapsed time.
func TestBatchProgressEvents(t *testing.T) {
	fw := &fakeWorker{name: "slow"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		time.Sleep(30 * time.Millisecond)
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s := New(Config{
		Workers:          []string{"fake://slow"},
		NewTransport:     func(base string) grid.Transport { return fw },
		ProgressInterval: 5 * time.Millisecond,
		Logf:             func(string, ...any) {},
	})
	t.Cleanup(s.Close)

	rec, body := postJSON(t, s, "/v1/batch?machines=baseline,rb-full&widths=4&workloads=compress,mcf&format=ndjson", "")
	if rec.Code != 200 {
		t.Fatalf("batch = %d", rec.Code)
	}
	progress, doneEvents := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		switch ev.Event {
		case "progress":
			progress++
			var p BatchProgress
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Fatal(err)
			}
			if p.Total != 4 || p.Done < 0 || p.Done > 4 {
				t.Fatalf("progress = %+v, want done in [0,4] of total 4", p)
			}
		case "done":
			doneEvents++
			var d BatchDone
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatal(err)
			}
			if d.Cells != 4 || d.Total != 4 || d.ElapsedMs <= 0 {
				t.Fatalf("done = %+v, want 4/4 cells with positive elapsed_ms", d)
			}
		}
	}
	if progress == 0 {
		t.Fatal("streamed batch emitted no progress records")
	}
	if doneEvents != 1 {
		t.Fatalf("done events = %d, want 1", doneEvents)
	}
}

// TestBatchProgressETA: once some but not all cells have landed, progress
// records carry an ETA. The second cell is gated inside the fake worker
// until the test has read such a record.
func TestBatchProgressETA(t *testing.T) {
	gate := make(chan struct{})
	fw := &fakeWorker{name: "eta"}
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
	s := New(Config{
		Workers:          []string{"fake://eta"},
		NewTransport:     func(base string) grid.Transport { return fw },
		ProgressInterval: 5 * time.Millisecond,
		Logf:             func(string, ...any) {},
	})
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/v1/batch?machines=baseline&widths=4&workloads=compress,mcf&format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawETA := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		if ev.Event == "done" {
			break
		}
		if ev.Event != "progress" || sawETA {
			continue
		}
		var p BatchProgress
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Done > 0 && p.Done < p.Total {
			if p.EtaMs <= 0 {
				t.Fatalf("progress %+v: no ETA with %d of %d cells done", p, p.Done, p.Total)
			}
			sawETA = true
			close(gate)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawETA {
		t.Fatal("no progress record with 0 < done < total")
	}
}

// TestBatchProgressDisabled: a negative interval suppresses progress
// records entirely.
func TestBatchProgressDisabled(t *testing.T) {
	fw := &fakeWorker{name: "quiet"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		time.Sleep(10 * time.Millisecond)
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s := New(Config{
		Workers:          []string{"fake://quiet"},
		NewTransport:     func(base string) grid.Transport { return fw },
		ProgressInterval: -1,
		Logf:             func(string, ...any) {},
	})
	t.Cleanup(s.Close)
	_, body := postJSON(t, s, "/v1/batch?machines=baseline&widths=4&workloads=compress&format=ndjson", "")
	if strings.Contains(string(body), `"event":"progress"`) {
		t.Fatalf("progress records present with a negative interval:\n%s", body)
	}
}

// TestArtifactBatchJournaled: artifact batches journal their cells and
// render the canonical text output beside the journal; a coordinator
// restart resumes an interrupted artifact with journaled cells served from
// the journal.
func TestArtifactBatchJournaled(t *testing.T) {
	dir := t.TempDir()
	fw := &fakeWorker{name: "art"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return &grid.CellResult{Key: req.Key(), Result: canned(t)}, nil
	}
	s := resilientCoordinator(t, dir, fw)
	rec, body := postJSON(t, s, "/v1/batch?artifact=fig9&format=text", "")
	if rec.Code != 200 {
		t.Fatalf("artifact batch = %d: %s", rec.Code, body)
	}
	id := rec.Header().Get("X-Batch-Id")
	if id == "" {
		t.Fatal("no X-Batch-Id on a journaled artifact batch")
	}
	out, err := os.ReadFile(s.journalOutPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(body) {
		t.Fatal("journal output diverges from the response body")
	}
	rep, err := grid.ReadJournal(s.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Done || rep.Meta.Artifact != "fig9" || len(rep.Cells) == 0 {
		t.Fatalf("artifact journal: done=%v artifact=%q cells=%d", rep.Done, rep.Meta.Artifact, len(rep.Cells))
	}
	firstCalls := fw.calls.Load()
	s.Close()

	// Tear the journal's done marker off and resume: every journaled cell
	// is a cache hit, so the artifact re-renders without one transport call.
	raw, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	// The done record is kind(1)+len(4)+crc(4) = 9 bytes; cutting it leaves
	// a clean, incomplete journal.
	if err := os.WriteFile(s.journalPath(id), raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.journalOutPath(id)); err != nil {
		t.Fatal(err)
	}
	fw2 := &fakeWorker{name: "art"}
	fw2.fn = fw.fn
	s2 := resilientCoordinator(t, dir, fw2)
	if err := s2.ResumeJournals(context.Background()); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(s2.journalOutPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(body) {
		t.Fatal("resumed artifact output diverges from the original response")
	}
	if fw2.calls.Load() >= firstCalls {
		t.Fatalf("resume re-dispatched %d of %d cells; journaled cells must be cache hits",
			fw2.calls.Load(), firstCalls)
	}
}
