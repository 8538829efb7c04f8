package server

// Grid endpoints (DESIGN.md §16). /v1/cell is the worker side: one cell
// request in, one cell result out — the unit the coordinator distributes.
// /v1/batch is the sweep endpoint: a sweep spec (explicit axes or a named
// artifact) fans out across the router in coordinator mode, or over this
// server's own pool otherwise, and the per-cell results stream back as they
// land (SSE or NDJSON), or aggregate into one response (json/text).
// Both endpoints sit behind the same observed/breaking/chaotic/limited
// middleware chain as every other /v1 route.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/workload"
)

// maxCellBody bounds /v1/cell and /v1/batch request bodies.
const maxCellBody = 1 << 20

// handleCell runs one grid cell on this worker:
//
//	POST /v1/cell        {"config": {...}, "workload": "mcf"}
//
// The coordinator is the only intended caller, but the endpoint is plain
// JSON-over-HTTP: a full machine.Config in, a CellResult out, computed by
// grid.RunLocal — the path a non-coordinator's /v1/batch takes too. Full
// cells run through the shared worker pool; sampled cells drive the
// harness's sampler, which fans its windows over the same pool itself.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCellBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad cell body: "+err.Error())
		return
	}
	// Unknown fields are refused, so a body naming a removed or misspelled
	// field is never simulated as though the field were absent.
	var req grid.CellRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("trailing data after the cell request")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad cell request: "+err.Error())
		return
	}
	out, err := grid.RunLocal(r.Context(), s.harness, &req, s.runInPool)
	if err != nil {
		s.failRequest(w, r, err) // ErrBadCell -> 400
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// batchFormats are the /v1/batch response formats: aggregate (json, text)
// and streaming (sse, ndjson).
func validBatchFormat(f string) bool {
	switch f {
	case "json", "text", "sse", "ndjson":
		return true
	}
	return false
}

// BatchCellEvent is one streamed (or aggregated) cell of a batch.
type BatchCellEvent struct {
	Key     string                     `json:"key"`
	IPC     float64                    `json:"ipc"`
	Result  *core.Result               `json:"result,omitempty"`
	Sampled *experiments.SampledResult `json:"sampled,omitempty"`
}

func cellEvent(res *grid.CellResult) BatchCellEvent {
	return BatchCellEvent{Key: res.Key, IPC: res.IPC(), Result: res.Result, Sampled: res.Sampled}
}

// BatchDone is the final event of a streamed batch (and the partial-failure
// summary of an aggregate one).
type BatchDone struct {
	Cells     int    `json:"cells"` // cells delivered
	Total     int    `json:"total"` // cells requested
	ElapsedMs int64  `json:"elapsed_ms"`
	ID        string `json:"id,omitempty"` // journal id when batches are durable
	Partial   bool   `json:"partial,omitempty"`
	Error     string `json:"error,omitempty"`
}

// BatchProgress is the periodic progress record of a streamed batch: cells
// landed so far, and an ETA that assumes the remaining cells land at the
// rate the done ones did, elapsed × remaining / done (omitted until a cell
// lands, and for artifact batches whose cell total is not known up front).
type BatchProgress struct {
	Done      int   `json:"done"`
	Total     int   `json:"total,omitempty"`
	ElapsedMs int64 `json:"elapsed_ms"`
	EtaMs     int64 `json:"eta_ms,omitempty"`
}

// streamProgress emits progress records every ProgressInterval until the
// returned stop function is called. counts reports (done, total); total 0
// means unknown.
func (s *Server) streamProgress(stream *batchStream, start time.Time, counts func() (done, total int)) (stop func()) {
	interval := s.cfg.ProgressInterval
	if interval == 0 {
		interval = time.Second
	}
	if stream == nil || interval < 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval) //rblint:allow determinism
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				n, total := counts()
				ev := BatchProgress{
					Done:      n,
					Total:     total,
					ElapsedMs: time.Since(start).Milliseconds(), //rblint:allow determinism
				}
				if n > 0 && total > n {
					ev.EtaMs = ev.ElapsedMs * int64(total-n) / int64(n)
				}
				stream.event("progress", ev)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// batchStream serializes streamed events onto the response, flushing after
// each so clients observe cells incrementally.
type batchStream struct {
	mu  sync.Mutex
	w   http.ResponseWriter
	sse bool
}

func newBatchStream(w http.ResponseWriter, format string) *batchStream {
	sse := format == "sse"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	return &batchStream{w: w, sse: sse}
}

// event emits one named event; a nil stream (an aggregate format) emits
// nothing. Write errors (a vanished client) are ignored: the request
// context's cancellation is what stops the work.
func (b *batchStream) event(name string, v any) {
	if b == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sse {
		fmt.Fprintf(b.w, "event: %s\ndata: %s\n\n", name, data)
	} else {
		fmt.Fprintf(b.w, `{"event":%q,"data":%s}`+"\n", name, data)
	}
	if f, ok := b.w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleBatch fans a sweep out across the grid (a coordinator's workers, or
// this server's own pool):
//
//	GET  /v1/batch?machines=baseline,rb-full&widths=4,8&suite=SPECint95&format=sse
//	GET  /v1/batch?artifact=fig9&format=text       # byte-identical to rbexp
//	POST /v1/batch  {"machines": ["rb-full"], "widths": [8], "sampled": {...}}
//
// Axes mode expands machines x widths x windows x no-bypass-levels x
// workloads into cells; artifact mode runs a named paper artifact through
// the grid, streaming its cells as they complete. format=sse|ndjson stream
// per-cell results; json|text aggregate. Either kind becomes a journal meta
// and runs through serveBatch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if !validBatchFormat(format) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown format %q (want json, text, sse, or ndjson)", format))
		return
	}
	var spec *grid.BatchSpec
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCellBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
			return
		}
		if len(bytes.TrimSpace(body)) > 0 {
			spec = &grid.BatchSpec{}
			if err := json.Unmarshal(body, spec); err != nil {
				writeError(w, http.StatusBadRequest, "bad batch spec: "+err.Error())
				return
			}
		}
	}
	meta := &grid.JournalMeta{Spec: spec, Format: format}
	if name := q.Get("artifact"); name != "" {
		if spec != nil || q.Get("machines") != "" || q.Get("no-bypass-levels") != "" {
			writeError(w, http.StatusBadRequest, "artifact and sweep axes are mutually exclusive")
			return
		}
		var ok bool
		if meta.Width, meta.Suite, ok = s.artifactParams(w, q, name); !ok {
			return
		}
		meta.Artifact = name
	} else if spec == nil {
		var err error
		if meta.Spec, err = batchSpecFromQuery(q); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	s.serveBatch(w, r, meta)
}

// artifactParams validates an artifact name (404 on unknown) and its
// width/suite parameters for /v1/experiment and /v1/batch?artifact=.
func (s *Server) artifactParams(w http.ResponseWriter, q map[string][]string, name string) (width int, suite string, ok bool) {
	if _, ok := experiments.ArtifactByName(name); !ok && name != "ipc" {
		writeError(w, http.StatusNotFound, errUnknownArtifact(name).Error())
		return 0, "", false
	}
	width, suite = 8, "SPECint2000"
	if name == "ipc" {
		var err error
		if width, err = intParam(first(q, "width"), 8); err != nil {
			writeError(w, http.StatusBadRequest, "bad width: "+err.Error())
			return 0, "", false
		}
		switch width {
		case 2, 4, 8, 16:
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("unsupported width %d (want 2, 4, 8, or 16)", width))
			return 0, "", false
		}
		if suite = first(q, "suite"); suite == "" {
			suite = "SPECint2000"
		}
		if _, err := workload.Suite(suite); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return 0, "", false
		}
	}
	return width, suite, true
}

func first(q map[string][]string, key string) string {
	if vs := q[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// batchSpecFromQuery reads the sweep axes from query parameters.
func batchSpecFromQuery(q map[string][]string) (*grid.BatchSpec, error) {
	spec := &grid.BatchSpec{Suite: first(q, "suite")}
	if v := first(q, "machines"); v != "" {
		spec.Machines = strings.Split(v, ",")
	}
	if v := first(q, "workloads"); v != "" {
		spec.Workloads = strings.Split(v, ",")
	}
	// no-bypass-levels entries are comma lists themselves ("1,2"), so
	// variants separate with ";" here: no-bypass-levels=2;1,2
	if v := first(q, "no-bypass-levels"); v != "" {
		spec.NoBypassLevels = strings.Split(v, ";")
	}
	var err error
	if spec.Widths, err = intsParam(first(q, "widths")); err != nil {
		return nil, fmt.Errorf("bad widths: %w", err)
	}
	if spec.Windows, err = intsParam(first(q, "windows")); err != nil {
		return nil, fmt.Errorf("bad windows: %w", err)
	}
	if first(q, "samples") != "" {
		if spec.Sampled, err = sampleSpecFromQuery(q); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// sampleSpecFromQuery reads the sampling knobs shared by /v1/sim and
// /v1/batch: samples (required), warmup and measure (default 2000), ff-warm
// (default 0). Validation is the caller's.
func sampleSpecFromQuery(q map[string][]string) (*experiments.SampleSpec, error) {
	samples, err := strconv.Atoi(first(q, "samples"))
	if err != nil {
		return nil, fmt.Errorf("bad samples: %w", err)
	}
	warmup, err := intParam(first(q, "warmup"), 2000)
	if err != nil {
		return nil, fmt.Errorf("bad warmup: %w", err)
	}
	measure, err := intParam(first(q, "measure"), 2000)
	if err != nil {
		return nil, fmt.Errorf("bad measure: %w", err)
	}
	ffWarm, err := intParam(first(q, "ff-warm"), 0)
	if err != nil {
		return nil, fmt.Errorf("bad ff-warm: %w", err)
	}
	return &experiments.SampleSpec{Samples: samples, Warmup: warmup, Measure: measure, FFWarm: int64(ffWarm)}, nil
}

// intsParam parses a comma-separated integer list ("" -> nil).
func intsParam(v string) ([]int, error) {
	if v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// batchRun runs one batch to completion. onCell sees each cell as it lands
// and onErr each cell of a sweep that failed (onErr may be nil; both may be
// called from many goroutines). It returns the aggregate response value,
// the canonical text rendering (the format=text body and the journal's
// completed output) and the first error; a failed sweep still returns the
// cells that landed.
type batchRun func(ctx context.Context, onCell func(*grid.CellResult), onErr func(key string, err error)) (result any, text []byte, err error)

// newBatch builds a batch from its journal meta, the batch's whole
// identity. The /v1/batch handler and journal resume both start here, so a
// resumed batch computes and renders exactly as an uninterrupted one. total
// is the cell count when it is known up front: 0 for an artifact, whose
// cells the figure code chooses as it runs.
func (s *Server) newBatch(meta *grid.JournalMeta) (total int, run batchRun, err error) {
	if meta.Spec == nil {
		// The figure code is untouched: a TeeRunner around the runner
		// /v1/experiment uses reports each distinct cell as it lands, and
		// the artifact renders exactly as /v1/experiment does.
		return 0, func(ctx context.Context, onCell func(*grid.CellResult), _ func(string, error)) (any, []byte, error) {
			res, err := runArtifact(ctx, &grid.TeeRunner{R: s.runner(), OnCell: onCell}, meta.Artifact, meta.Width, meta.Suite)
			if err != nil {
				return nil, nil, err
			}
			text, err := experiments.RenderText(res)
			return res, text, err
		}, nil
	}
	cells, err := meta.Spec.Cells()
	if err != nil {
		return 0, nil, err
	}
	return len(cells), func(ctx context.Context, onCell func(*grid.CellResult), onErr func(string, error)) (any, []byte, error) {
		done, err := s.computeCellBatch(ctx, cells, onCell, onErr)
		return cellBatch{Cells: done, Count: len(done)}, renderCellBatchText(done), err
	}, nil
}

// cellBatch is a sweep's aggregate response: its landed cells, sorted by
// key.
type cellBatch struct {
	Cells []BatchCellEvent `json:"cells"`
	Count int              `json:"count"`
}

// computeCellBatch runs every cell concurrently (the router's in-flight
// semaphore or the pool is the bound), invoking onCell/onErr as each lands
// (onErr may be nil). It returns the successful cells sorted by key plus
// the first error.
func (s *Server) computeCellBatch(ctx context.Context, cells []grid.CellRequest, onCell func(*grid.CellResult), onErr func(key string, err error)) ([]BatchCellEvent, error) {
	results := make([]*grid.CellResult, len(cells))
	errs := make([]error, len(cells))
	// Every cell runs to completion (a partial batch reports what landed),
	// so per-cell errors are kept here and the fan-out itself never fails.
	experiments.FanOut(ctx, len(cells), experiments.Spawn, func(i int) error {
		results[i], errs[i] = s.runCell(ctx, &cells[i])
		if errs[i] == nil {
			onCell(results[i])
		} else if onErr != nil {
			onErr(cells[i].Key(), errs[i])
		}
		return nil
	})

	done := make([]BatchCellEvent, 0, len(cells))
	var firstErr error
	for i, res := range results {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		done = append(done, cellEvent(res))
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Key < done[b].Key })
	return done, firstErr
}

// renderCellBatchText is the canonical text rendering of a cell batch.
func renderCellBatchText(done []BatchCellEvent) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "batch: %d cells\n", len(done))
	for i := range done {
		fmt.Fprintf(&b, "%-48s %8.4f\n", done[i].Key, done[i].IPC)
	}
	return b.Bytes()
}

// serveBatch runs one batch and delivers it in meta.Format. A client
// disconnect cancels the request context, which cancels every outstanding
// worker call. With -journal-dir, cells are journaled as they land, the
// batch id travels in the X-Batch-Id header and the done record, and a
// finished batch leaves its canonical text beside the journal (the output
// the resume path and the ci.sh chaos leg diff against serial rbexp).
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, meta *grid.JournalMeta) {
	total, run, err := s.newBatch(meta)
	if err != nil {
		s.failRequest(w, r, err) // ErrBadSpec -> 400
		return
	}
	start := time.Now() //rblint:allow determinism
	bj := s.startJournal(meta)
	if bj != nil {
		w.Header().Set("X-Batch-Id", bj.id)
	}
	var stream *batchStream
	if meta.Format == "sse" || meta.Format == "ndjson" {
		stream = newBatchStream(w, meta.Format)
	}
	var landed, failed atomic.Int64
	stopProgress := s.streamProgress(stream, start, func() (int, int) {
		return int(landed.Load()), total
	})
	res, text, err := run(r.Context(), func(c *grid.CellResult) {
		landed.Add(1)
		bj.observe(c)
		stream.event("cell", cellEvent(c))
	}, func(key string, cerr error) {
		failed.Add(1)
		stream.event("error", map[string]string{"key": key, "error": cerr.Error()})
	})
	stopProgress()
	n := int(landed.Load())
	if err != nil {
		bj.abort()
	} else {
		bj.finish(text)
		if total == 0 {
			total = n // an artifact's cell count is known once it is done
		}
	}

	if stream != nil {
		d := BatchDone{Cells: n, Total: total, ElapsedMs: time.Since(start).Milliseconds()} //rblint:allow determinism
		if bj != nil {
			d.ID = bj.id
		}
		switch {
		case err != nil:
			if failed.Load() == 0 {
				// A failure no cell reported (an artifact fails as a whole).
				stream.event("error", map[string]string{"error": err.Error()})
			}
			d.Partial, d.Error = true, err.Error()
		case meta.Artifact != "":
			stream.event("result", res)
		}
		stream.event("done", d)
		return
	}
	if err != nil {
		if cb, ok := res.(cellBatch); ok && errors.Is(err, grid.ErrNoWorkers) {
			// Grid degraded mid-sweep: flag what completed as partial.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":   err.Error(),
				"partial": true,
				"cells":   cb.Cells,
				"total":   total,
			})
			return
		}
		s.failRequest(w, r, err)
		return
	}
	if meta.Format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(text)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
