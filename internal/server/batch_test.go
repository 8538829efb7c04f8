package server

// The /v1/batch response matrix: every batch kind (an axes sweep, an axes
// sweep of sampled cells, a paper artifact) in every format (json, text,
// sse, ndjson) on a journaled fake-worker coordinator. Each response's
// status, Content-Type, X-Batch-Id and event sequence are pinned, and the
// journal's rendered output must equal the format=text body and the output
// a restarted coordinator renders when it resumes the batch.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/grid"
)

// matrixWorker answers full cells with the canned result and sampled cells
// with a fixed estimate that differs per workload.
func matrixWorker(t *testing.T) *fakeWorker {
	full := canned(t)
	fw := &fakeWorker{name: "matrix"}
	fw.fn = func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		if req.Sampled != nil {
			ipc := 1 + float64(len(req.Workload))/8
			return &grid.CellResult{Key: req.Key(), Sampled: &experiments.SampledResult{
				Machine: req.Config.Name, Workload: req.Workload, Spec: *req.Sampled,
				CellIPCs: []float64{ipc, ipc}, MeanCPI: 1 / ipc, MeanIPC: ipc,
			}}, nil
		}
		return &grid.CellResult{Key: req.Key(), Result: full}, nil
	}
	return fw
}

// batchEvent is one event of a streamed batch response.
type batchEvent struct {
	name string
	data json.RawMessage
}

// parseBatchStream splits an sse or ndjson body into its events.
func parseBatchStream(t *testing.T, format string, body []byte) []batchEvent {
	t.Helper()
	var evs []batchEvent
	if format == "ndjson" {
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var ev struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad ndjson line %q: %v", line, err)
			}
			evs = append(evs, batchEvent{ev.Event, ev.Data})
		}
		return evs
	}
	for _, rec := range strings.Split(strings.TrimSpace(string(body)), "\n\n") {
		name, rest, ok := strings.Cut(rec, "\n")
		if !ok || !strings.HasPrefix(name, "event: ") || !strings.HasPrefix(rest, "data: ") {
			t.Fatalf("bad sse record %q", rec)
		}
		evs = append(evs, batchEvent{strings.TrimPrefix(name, "event: "), json.RawMessage(strings.TrimPrefix(rest, "data: "))})
	}
	return evs
}

// resumeFromJournal cuts the done marker off a finished batch's journal,
// deletes its rendered output, and returns the output a fresh coordinator
// over the same directory renders when it resumes the batch.
func resumeFromJournal(t *testing.T, dir, id string) []byte {
	t.Helper()
	s := resilientCoordinator(t, dir, matrixWorker(t))
	defer s.Close()
	raw, err := os.ReadFile(s.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	// The done record is kind(1)+len(4)+crc(4) = 9 bytes.
	if err := os.WriteFile(s.journalPath(id), raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.journalOutPath(id)); err != nil {
		t.Fatal(err)
	}
	if err := s.ResumeJournals(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(s.journalOutPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBatchMatrix(t *testing.T) {
	kinds := []struct {
		name, query string
		artifact    bool
		cells       int // cells up front; 0 for an artifact
	}{
		{"axes", "machines=baseline,rb-full&widths=4&workloads=compress,gcc00", false, 4},
		{"axes-sampled", "machines=baseline,rb-full&widths=4&workloads=compress,gcc00&samples=3&warmup=500&measure=700", false, 4},
		{"artifact", "artifact=fig9", true, 0},
	}
	contentTypes := map[string]string{
		"json":   "application/json",
		"text":   "text/plain; charset=utf-8",
		"sse":    "text/event-stream",
		"ndjson": "application/x-ndjson",
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var text []byte // the format=text body, the journal's .out for every format
			for _, format := range []string{"text", "json", "sse", "ndjson"} {
				dir := t.TempDir()
				s := resilientCoordinator(t, dir, matrixWorker(t))
				rec, body := postJSON(t, s, "/v1/batch?"+k.query+"&format="+format, "")
				s.Close()
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", format, rec.Code, body)
				}
				if ct := rec.Header().Get("Content-Type"); ct != contentTypes[format] {
					t.Errorf("%s: Content-Type %q, want %q", format, ct, contentTypes[format])
				}
				id := rec.Header().Get("X-Batch-Id")
				if id == "" {
					t.Fatalf("%s: no X-Batch-Id on a journaled batch", format)
				}
				out, err := os.ReadFile(s.journalOutPath(id))
				if err != nil {
					t.Fatalf("%s: %v", format, err)
				}
				rep, err := grid.ReadJournal(s.journalPath(id))
				if err != nil {
					t.Fatal(err)
				}
				journaled := len(rep.Cells)
				if !rep.Done || journaled == 0 || (k.cells > 0 && journaled != k.cells) {
					t.Fatalf("%s: journal done=%v with %d cells", format, rep.Done, journaled)
				}

				switch format {
				case "text":
					text = body
					if k.cells > 0 && !bytes.HasPrefix(body, []byte("batch: 4 cells\n")) {
						t.Errorf("text body %q", body)
					}
				case "json":
					if k.artifact {
						var v map[string]any
						if err := json.Unmarshal(body, &v); err != nil || len(v) == 0 {
							t.Errorf("json artifact body %q: %v", body, err)
						}
						break
					}
					var agg struct {
						Count int              `json:"count"`
						Cells []BatchCellEvent `json:"cells"`
					}
					if err := json.Unmarshal(body, &agg); err != nil || agg.Count != k.cells || len(agg.Cells) != k.cells {
						t.Errorf("json body %q: %v", body, err)
					}
				default:
					var names []string
					var done BatchDone
					for _, ev := range parseBatchStream(t, format, body) {
						switch ev.name {
						case "progress":
							continue
						case "done":
							if err := json.Unmarshal(ev.data, &done); err != nil {
								t.Fatal(err)
							}
						}
						names = append(names, ev.name)
					}
					want := strings.Repeat("cell ", journaled)
					if k.artifact {
						want += "result "
					}
					want += "done"
					if got := strings.Join(names, " "); got != want {
						t.Errorf("%s: events %q, want %q", format, got, want)
					}
					if done.Cells != journaled || done.Total != journaled || done.Partial || done.Error != "" || done.ID != id {
						t.Errorf("%s: done %+v, want %d of %d cells, not partial, id %s", format, done, journaled, journaled, id)
					}
				}
				if !bytes.Equal(out, text) {
					t.Errorf("%s: journal output diverges from the text body:\n%s\n---\n%s", format, out, text)
				}
				if format == "text" {
					if resumed := resumeFromJournal(t, dir, id); !bytes.Equal(resumed, text) {
						t.Errorf("resumed output diverges from the text body:\n%s\n---\n%s", resumed, text)
					}
				}
			}
		})
	}
}
