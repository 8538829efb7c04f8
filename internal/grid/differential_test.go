package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// These are the grid's acceptance tests: the distributed sweep must be
// byte-identical to the serial harness — across worker counts, transport
// kinds, and a worker dying mid-sweep. Cells are deterministic functions of
// their parameters, so any byte of divergence is a routing, transport, or
// caching bug.

func diffCells(t *testing.T) []CellRequest {
	t.Helper()
	spec := &BatchSpec{
		Machines:  []string{"baseline", "rb-full"},
		Widths:    []int{4},
		Workloads: []string{"compress", "mcf", "li"},
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// serialOracle computes every cell on a fresh single-threaded harness and
// returns key -> canonical JSON.
func serialOracle(t *testing.T, cells []CellRequest) map[string]string {
	t.Helper()
	h := experiments.NewHarness(1)
	defer h.Close()
	out := make(map[string]string, len(cells))
	for i := range cells {
		res, err := RunLocal(context.Background(), h, &cells[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		out[cells[i].Key()] = canonJSON(t, res)
	}
	return out
}

func canonJSON(t *testing.T, res *CellResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localWorkers builds n independent fake workers, each with its own harness
// (its own caches and pool — exactly a worker process's state, minus HTTP).
func localWorkers(t *testing.T, n int) []Transport {
	t.Helper()
	workers := make([]Transport, n)
	for i := 0; i < n; i++ {
		h := experiments.NewHarness(2)
		t.Cleanup(h.Close)
		workers[i] = &Local{Harness: h, Label: fmt.Sprintf("w%d", i)}
	}
	return workers
}

func runThroughRouter(t *testing.T, r *Router, cells []CellRequest) map[string]string {
	t.Helper()
	out := make(map[string]string, len(cells))
	for i := range cells {
		res, err := r.Do(context.Background(), &cells[i])
		if err != nil {
			t.Fatalf("%s: %v", cells[i].Key(), err)
		}
		if _, dup := out[res.Key]; dup {
			t.Fatalf("cell %s computed twice", res.Key)
		}
		out[res.Key] = canonJSON(t, res)
	}
	return out
}

func assertIdentical(t *testing.T, label string, oracle, got map[string]string) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("%s: %d cells, oracle has %d", label, len(got), len(oracle))
	}
	for key, want := range oracle {
		if got[key] == "" {
			t.Fatalf("%s: cell %s missing", label, key)
		}
		if got[key] != want {
			t.Fatalf("%s: cell %s diverged from serial oracle:\n got %s\nwant %s",
				label, key, got[key], want)
		}
	}
}

// TestGridByteIdentity runs the same sweep serially and through 1-, 2-, and
// 4-worker grids, asserting byte-identical results everywhere.
func TestGridByteIdentity(t *testing.T) {
	cells := diffCells(t)
	oracle := serialOracle(t, cells)
	for _, n := range []int{1, 2, 4} {
		r, err := NewRouter(Options{Workers: localWorkers(t, n)})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, fmt.Sprintf("%d workers", n), oracle, runThroughRouter(t, r, cells))
	}
}

// dyingTransport forwards to a Local worker until kill() — after which every
// call fails, simulating a worker process dying mid-sweep.
type dyingTransport struct {
	inner  Transport
	dead   atomic.Bool
	served atomic.Int64
}

func (d *dyingTransport) Name() string { return d.inner.Name() }

func (d *dyingTransport) RunCell(ctx context.Context, req *CellRequest) (*CellResult, error) {
	if d.dead.Load() {
		return nil, fmt.Errorf("worker %s: connection refused", d.Name())
	}
	res, err := d.inner.RunCell(ctx, req)
	if err == nil {
		d.served.Add(1)
	}
	return res, err
}

// TestGridWorkerKillMidSweep kills one of two workers partway through a
// sweep: every remaining cell must fail over with no duplicates, no missing
// cells, and bytes identical to the serial oracle.
func TestGridWorkerKillMidSweep(t *testing.T) {
	cells := diffCells(t)
	oracle := serialOracle(t, cells)
	workers := localWorkers(t, 2)
	victim := &dyingTransport{inner: workers[0]}
	r, err := NewRouter(Options{Workers: []Transport{victim, workers[1]}})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(cells))
	for i := range cells {
		if i == len(cells)/2 {
			victim.dead.Store(true) // mid-sweep kill
		}
		res, err := r.Do(context.Background(), &cells[i])
		if err != nil {
			t.Fatalf("%s: %v", cells[i].Key(), err)
		}
		if _, dup := out[res.Key]; dup {
			t.Fatalf("cell %s computed twice", res.Key)
		}
		out[res.Key] = canonJSON(t, res)
	}
	assertIdentical(t, "kill mid-sweep", oracle, out)
	snaps, _ := r.Snapshot()
	t.Logf("post-kill snapshots: %+v", snaps)
}

// TestGridSampledByteIdentity: the SMARTS-sampled estimator distributes
// identically too (the whole SampledResult survives the wire).
func TestGridSampledByteIdentity(t *testing.T) {
	spec := &experiments.SampleSpec{Samples: 4, Warmup: 1000, Measure: 1000}
	cell := CellRequest{Config: machine.NewRBFull(4), Workload: "gzip", Sampled: spec}

	h := experiments.NewHarness(1)
	defer h.Close()
	want, err := RunLocal(context.Background(), h, &cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{Workers: localWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Do(context.Background(), &cell)
	if err != nil {
		t.Fatal(err)
	}
	if canonJSON(t, got) != canonJSON(t, want) {
		t.Fatalf("sampled cell diverged:\n got %s\nwant %s", canonJSON(t, got), canonJSON(t, want))
	}
}

// TestGridFigureIdentity runs a real paper figure through a 2-worker grid
// via the Runner interface and asserts its rendering matches the serial
// harness's byte for byte — the same guarantee scripts/ci.sh checks over
// HTTP against rbexp.
func TestGridFigureIdentity(t *testing.T) {
	ctx := context.Background()
	h := experiments.NewHarness(0)
	defer h.Close()
	want, err := experiments.Figure9(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Options{Workers: localWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiments.Figure9(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := want.Render(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := got.Render(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Fatalf("fig9 diverged through the grid:\n--- serial\n%s\n--- grid\n%s",
			wantBuf.String(), gotBuf.String())
	}
	// Distribution actually happened: both workers served cells.
	snaps, _ := r.Snapshot()
	for _, s := range snaps {
		if s.Routed == 0 {
			t.Fatalf("worker %s served nothing — sweep was not distributed: %+v", s.Name, snaps)
		}
	}
}

// TestTeeRunnerObservesEachCellOnce: the batch streaming hook sees every
// distinct cell exactly once even when the runner is asked repeatedly.
func TestTeeRunnerObservesEachCellOnce(t *testing.T) {
	h := experiments.NewHarness(2)
	defer h.Close()
	var mu sync.Mutex
	seen := make(map[string]int)
	tee := &TeeRunner{R: h, OnCell: func(res *CellResult) {
		mu.Lock()
		seen[res.Key]++
		mu.Unlock()
	}}
	ctx := context.Background()
	cfgs := []machine.Config{machine.NewBaseline(4), machine.NewRBFull(4)}
	wls := []*workload.Workload{mustWL(t, "compress"), mustWL(t, "mcf")}
	if _, err := tee.RunMatrix(ctx, cfgs, wls); err != nil {
		t.Fatal(err)
	}
	// Re-running the same cells (cache hits underneath) must not re-fire.
	if _, err := tee.RunCell(ctx, cfgs[0], wls[0]); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("observed %d distinct cells, want 4: %v", len(seen), seen)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("cell %s observed %d times, want 1", key, n)
		}
	}
}

func mustWL(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return w
}
