package server

// Resilience endpoints and the durable-batch machinery (DESIGN.md §17):
// worker registration heartbeats feeding the grid registry, per-batch
// journaling of completed cells, and crash-resume — a coordinator restarted
// with the same -journal-dir replays each incomplete journal, seeds the
// replayed cells into the router's shared cache, and re-runs the batch so
// only the missing cells are re-dispatched; the completed output is
// byte-identical to an uninterrupted run.
//
// Wall-clock reads here are service plumbing (heartbeat timestamps, batch
// elapsed time), never simulated time, and carry determinism-lint allows.

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/grid"
)

// maxRegisterBody bounds /v1/register request bodies.
const maxRegisterBody = 4 << 10

// handleRegister is the worker heartbeat:
//
//	POST /v1/register    {"url": "http://host:port"}
//
// A new URL joins the registry (rendezvous routing immediately includes
// it); a known URL refreshes its liveness; a dead worker's beat revives it
// with a fresh breaker. The response tells the worker how often to beat.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.router == nil {
		writeError(w, http.StatusBadRequest, "not a coordinator: registration disabled")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRegisterBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad register body: "+err.Error())
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register request: "+err.Error())
		return
	}
	joined, err := s.router.Heartbeat(req.URL, time.Now()) //rblint:allow determinism
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if joined {
		s.logf("grid: worker %s joined the registry", req.URL)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"worker":           req.URL,
		"joined":           joined,
		"interval_seconds": s.router.HeartbeatInterval().Seconds(),
	})
}

// BatchInfo is one journaled batch in the /v1/batches listing.
type BatchInfo struct {
	ID       string `json:"id"`
	Artifact string `json:"artifact,omitempty"`
	Sweep    bool   `json:"sweep,omitempty"` // a cell-spec batch
	Cells    int    `json:"cells"`           // cells journaled so far
	Done     bool   `json:"done"`
	Torn     bool   `json:"torn,omitempty"` // journal ended in a torn tail
}

// handleBatches lists the journal directory's batches and their recovery
// state. 404 when journaling is disabled.
func (s *Server) handleBatches(w http.ResponseWriter, r *http.Request) {
	if s.cfg.JournalDir == "" {
		writeError(w, http.StatusNotFound, "journaling disabled: no -journal-dir")
		return
	}
	ids, err := grid.ListJournals(s.cfg.JournalDir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sort.Strings(ids)
	infos := make([]BatchInfo, 0, len(ids))
	for _, id := range ids {
		info := BatchInfo{ID: id}
		rep, err := grid.ReadJournal(s.journalPath(id))
		if err == nil {
			info.Artifact = rep.Meta.Artifact
			info.Sweep = rep.Meta.Spec != nil
			info.Cells = len(rep.Cells)
			info.Done = rep.Done
			info.Torn = rep.Torn
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(infos), "batches": infos})
}

func (s *Server) journalPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+grid.JournalExt)
}

func (s *Server) journalOutPath(id string) string {
	return filepath.Join(s.cfg.JournalDir, id+".out")
}

// newBatchID derives a unique batch id from the meta plus random bytes
// (resubmitting an identical spec must not collide with the old journal).
func newBatchID(meta *grid.JournalMeta) string {
	var nonce [8]byte
	rand.Read(nonce[:])
	return grid.JournalID(meta, nonce[:])
}

// batchJournal tracks one batch's journal: which cells are already durable
// (pre-populated from the replay on resume), and how many were appended by
// this run — the re-dispatch count the resume log reports.
type batchJournal struct {
	s  *Server
	j  *grid.Journal
	id string

	mu       sync.Mutex
	seen     map[string]bool
	replayed int // cells seeded from the journal (resume only)
	appended int // cells journaled by this run
	broken   bool
}

// startJournal opens a journal for a fresh batch; nil (with a log line)
// when journaling is disabled or the journal cannot be created — a batch
// never fails because its journal did.
func (s *Server) startJournal(meta *grid.JournalMeta) *batchJournal {
	if s.cfg.JournalDir == "" {
		return nil
	}
	id := newBatchID(meta)
	j, err := grid.CreateJournal(s.cfg.JournalDir, id, meta)
	if err != nil {
		s.logf("journal: create failed, batch runs unjournaled: %v", err)
		return nil
	}
	s.journaled.Add(1)
	return &batchJournal{s: s, j: j, id: id, seen: make(map[string]bool)}
}

// observe journals one completed cell, once per key.
func (b *batchJournal) observe(res *grid.CellResult) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken || b.seen[res.Key] {
		return
	}
	if err := b.j.AppendCell(res); err != nil {
		// Stop journaling, keep computing: the batch still answers; only
		// its durability is lost, and the missing done marker means the
		// next restart re-resolves whatever is absent.
		b.s.logf("journal %s: append failed, journaling stops: %v", b.id, err)
		b.broken = true
		return
	}
	b.seen[res.Key] = true
	b.appended++
}

// finish marks the batch complete: the done marker, then the canonical
// rendered output next to the journal (written atomically) — the artifact
// the ci.sh chaos leg diffs against serial rbexp.
func (b *batchJournal) finish(out []byte) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		b.j.Close()
		return
	}
	if err := b.j.Done(); err != nil {
		b.s.logf("journal %s: done marker failed: %v", b.id, err)
		b.j.Close()
		return
	}
	b.j.Close()
	tmp := b.s.journalOutPath(b.id) + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		b.s.logf("journal %s: output write failed: %v", b.id, err)
		return
	}
	if err := os.Rename(tmp, b.s.journalOutPath(b.id)); err != nil {
		b.s.logf("journal %s: output rename failed: %v", b.id, err)
	}
}

// abort closes the journal without a done marker (the batch failed or was
// interrupted); a later restart resumes it.
func (b *batchJournal) abort() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.j.Close()
}

// counts reports (replayed, appended) under the lock.
func (b *batchJournal) counts() (replayed, appended int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replayed, b.appended
}

// ResumeJournals replays every incomplete journal in the journal directory
// and completes it: replayed cells seed the router's shared cache (so they
// are cache hits, never re-dispatched), the spec re-runs for the missing
// cells, and the finished batch gets its done marker and rendered output.
// cmd/rbserve calls this in the background after the listener is up; tests
// call it synchronously. Corrupt journals are logged and skipped — one bad
// file must not block recovery of the rest.
func (s *Server) ResumeJournals(ctx context.Context) error {
	if s.cfg.JournalDir == "" {
		return nil
	}
	ids, err := grid.ListJournals(s.cfg.JournalDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	sort.Strings(ids)
	var firstErr error
	for _, id := range ids {
		if err := s.resumeJournal(ctx, id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Server) resumeJournal(ctx context.Context, id string) error {
	path := s.journalPath(id)
	rep, err := grid.ReadJournal(path)
	if err != nil {
		s.logf("journal %s: unreadable, skipped: %v", id, err)
		return nil
	}
	if rep.Done {
		if _, err := os.Stat(s.journalOutPath(id)); err == nil {
			return nil // complete: journal done and output rendered
		}
	}
	for _, c := range rep.Cells {
		s.router.Seed(c)
	}
	j, err := grid.OpenJournalAppend(path, rep.CleanLen)
	if err != nil {
		s.logf("journal %s: reopen failed: %v", id, err)
		return err
	}
	bj := &batchJournal{s: s, j: j, id: id, seen: make(map[string]bool, len(rep.Cells)), replayed: len(rep.Cells)}
	for _, c := range rep.Cells {
		bj.seen[c.Key] = true
	}

	// The journaled meta rebuilds the batch exactly as the live handler
	// built it; journaled cells are cache hits, so only missing cells reach
	// workers.
	total, run, err := s.newBatch(&rep.Meta)
	var text func() []byte
	if err == nil {
		_, text, err = run(ctx, bj.observe, nil)
	}
	if err != nil {
		bj.abort()
		s.logf("journal %s: resume failed (will retry next start): %v", id, err)
		return err
	}
	bj.finish(text())
	replayed, appended := bj.counts()
	if total == 0 {
		total = replayed + appended // an artifact: every distinct cell is journaled
	}
	s.resumed.Add(1)
	s.logf("journal %s: resumed: %d cells from journal, %d re-dispatched, %d total",
		id, replayed, appended, total)
	return nil
}
