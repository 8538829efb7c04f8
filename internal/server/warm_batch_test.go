package server

// A warm artifact batch on a coordinator: every cell is in the router's
// shared tier, so the batch reaches no worker, yet it streams every cell,
// answers the bytes a cold batch answers, and a journaled batch still
// leaves its canonical text.

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
	"repro/internal/machine"
	"repro/internal/workload"
)

func TestWarmArtifactBatch(t *testing.T) {
	// The worker's harness is the shared server's, whose cells other tests
	// reuse; fig9 there is what rbexp -exp fig9 prints.
	h := sharedServer().harness
	fig, err := experiments.Figure9(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	cliText := experiments.RenderText(fig)
	cells := len(machine.All(8)) * len(workload.SPECint2000())

	// An in-process worker: grid.RunLocal on h, the computation behind a
	// worker's /v1/cell, minus HTTP.
	hw := &fakeWorker{name: "local", fn: func(ctx context.Context, req *grid.CellRequest) (*grid.CellResult, error) {
		return grid.RunLocal(ctx, h, req, func(_ context.Context, f func()) error { f(); return nil })
	}}
	coord := resilientCoordinator(t, t.TempDir(), hw)
	batch := func(s *Server, format string) []byte {
		t.Helper()
		rec, body := postJSON(t, s, "/v1/batch?artifact=fig9&format="+format, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s batch = %d: %s", format, rec.Code, body)
		}
		// Every batch here is journaled; its rendered output is the
		// canonical text whatever the response format.
		out, err := os.ReadFile(s.journalOutPath(rec.Header().Get("X-Batch-Id")))
		if err != nil {
			t.Fatalf("%s batch: %v", format, err)
		}
		if !bytes.Equal(out, cliText) {
			t.Errorf("%s batch: journal output differs from rbexp's fig9:\n%s\n---\n%s", format, out, cliText)
		}
		return body
	}

	coldJSON := batch(coord, "json")
	if got := hw.calls.Load(); got != int64(cells) {
		t.Fatalf("cold batch made %d worker calls, want %d", got, cells)
	}
	if warm := batch(coord, "json"); !bytes.Equal(warm, coldJSON) {
		t.Errorf("warm json body differs from the cold one:\n%s\n---\n%s", warm, coldJSON)
	}
	warmText := batch(coord, "text")
	if !bytes.Equal(warmText, cliText) {
		t.Errorf("warm text body differs from rbexp's fig9:\n%s\n---\n%s", warmText, cliText)
	}
	if coldText := batch(resilientCoordinator(t, t.TempDir(), hw), "text"); !bytes.Equal(warmText, coldText) {
		t.Errorf("warm text body differs from a cold one:\n%s\n---\n%s", warmText, coldText)
	}

	calls := hw.calls.Load()
	var after []string // the events after the last cell
	keys := make(map[string]int)
	for _, ev := range parseBatchStream(t, "sse", batch(coord, "sse")) {
		switch ev.name {
		case "progress":
		case "cell":
			var c BatchCellEvent
			if err := json.Unmarshal(ev.data, &c); err != nil {
				t.Fatal(err)
			}
			keys[c.Key]++
			after = nil
		default:
			after = append(after, ev.name)
		}
	}
	if got := strings.Join(after, " "); got != "result done" {
		t.Errorf("warm sse batch: %q after the last cell, want \"result done\"", got)
	}
	if len(keys) != cells {
		t.Errorf("warm sse batch streamed %d distinct cells, want %d", len(keys), cells)
	}
	for key, n := range keys {
		if n != 1 {
			t.Errorf("warm sse batch streamed cell %s %d times", key, n)
		}
	}
	if got := hw.calls.Load() - calls; got != 0 {
		t.Errorf("warm sse batch made %d worker calls, want 0", got)
	}
}
