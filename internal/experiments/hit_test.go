package experiments

// Warm-path tests: a cell the harness has cached is answered on the
// caller's goroutine, so a warm figure or sampled estimate never waits on
// (or counts toward) the worker pool, and the alias guard and the cache
// counters hold on that path as they do on the pooled one.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/rcache"
	"repro/internal/workload"
)

// fig9Cells is Figure 9's matrix: the 8-wide machines over SPECint2000.
func fig9Cells() ([]machine.Config, []*workload.Workload) {
	return machine.All(8), workload.SPECint2000()
}

// poolHarness is a harness over cache (nil: a private one) and a pool of
// the given width, closed when the test ends.
func poolHarness(t *testing.T, workers int, cache *rcache.Cache) (*Harness, *pool.Pool) {
	t.Helper()
	p := pool.New(workers, 0)
	t.Cleanup(p.Close)
	return NewHarnessWith(p, cache), p
}

// parkWorker occupies p's one worker until the test ends: from then on any
// task submitted to p waits.
func parkWorker(t *testing.T, p *pool.Pool) {
	t.Helper()
	parked, release := make(chan struct{}), make(chan struct{})
	if err := p.Submit(context.Background(), func() {
		close(parked)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-parked
	t.Cleanup(func() { close(release) }) // before poolHarness's Close
}

// returnsWithin fails the test if fn is still running after d.
func returnsWithin(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v on a parked pool", what, d)
	}
}

// TestWarmCellsStayOffPool: once fig9's cells and a sampled estimate are
// cached, regenerating them with the pool's only worker parked returns,
// submits nothing, and gives the cold results: a lookup that went through
// the pool would wait on the parked worker.
func TestWarmCellsStayOffPool(t *testing.T) {
	// The cold runs fill the cache on a GOMAXPROCS-wide pool; h reads it
	// over a pool of one worker, which is then parked.
	cache := rcache.New(8, 0)
	cold, _ := poolHarness(t, 0, cache)
	h, p := poolHarness(t, 1, cache)
	ctx := context.Background()
	cfgs, wls := fig9Cells()
	coldMatrix, err := cold.RunMatrix(ctx, cfgs, wls)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("gzip")
	cfg := machine.NewRBLimited(4)
	coldSampled, err := cold.RunSampled(ctx, cfg, w, testSpec())
	if err != nil {
		t.Fatal(err)
	}

	parkWorker(t, p)
	submitted, runs := p.Submitted(), h.Runs()
	var (
		warmMatrix  map[string]map[string]*core.Result
		warmSampled *SampledResult
		merr, serr  error
	)
	returnsWithin(t, 30*time.Second, "warm fig9 RunMatrix", func() {
		warmMatrix, merr = h.RunMatrix(ctx, cfgs, wls)
	})
	returnsWithin(t, 30*time.Second, "warm RunSampled", func() {
		warmSampled, serr = h.RunSampled(ctx, cfg, w, testSpec())
	})
	if merr != nil || serr != nil {
		t.Fatalf("warm runs failed: matrix %v, sampled %v", merr, serr)
	}
	if got := p.Submitted(); got != submitted {
		t.Errorf("warm runs submitted %d pool tasks, want 0", got-submitted)
	}
	if got := h.Runs(); got != runs {
		t.Errorf("warm runs simulated %d cells, want 0", got-runs)
	}
	if !reflect.DeepEqual(warmMatrix, coldMatrix) {
		t.Error("warm fig9 matrix differs from the cold one")
	}
	if !reflect.DeepEqual(warmSampled, coldSampled) {
		t.Errorf("warm sampled estimate differs:\nwarm %s\ncold %s", warmSampled, coldSampled)
	}
}

// TestPartlyWarmMatrixSubmitsMisses: a matrix whose first rows are cached
// submits exactly its other cells to the pool.
func TestPartlyWarmMatrixSubmitsMisses(t *testing.T) {
	h, p := poolHarness(t, 1, nil)
	ctx := context.Background()
	cfgs, wls := machine.All(4), workload.SPECint95()[:2]
	const warmRows = 2
	if _, err := h.RunMatrix(ctx, cfgs[:warmRows], wls); err != nil {
		t.Fatal(err)
	}
	submitted, runs := p.Submitted(), h.Runs()
	if _, err := h.RunMatrix(ctx, cfgs, wls); err != nil {
		t.Fatal(err)
	}
	want := int64((len(cfgs) - warmRows) * len(wls))
	if got := p.Submitted() - submitted; got != want {
		t.Errorf("partly warm matrix submitted %d pool tasks, want its %d misses", got, want)
	}
	if got := h.Runs() - runs; got != want {
		t.Errorf("partly warm matrix simulated %d cells, want %d", got, want)
	}
}

// TestSampledWindowKeysPinned: the sampler's window keys keep their text,
// cellKey(cfg, workload, "window/<print>/<ffwarm>/<gap>+<warmup>/<measure>").
func TestSampledWindowKeysPinned(t *testing.T) {
	h := NewHarness(1)
	defer h.Close()
	ctx := context.Background()
	w, _ := workload.ByName("gzip")
	cfg := machine.NewRBLimited(4)
	spec := testSpec()
	spec.FFWarm = 5000
	if _, err := h.RunSampled(ctx, cfg, w, spec); err != nil {
		t.Fatal(err)
	}
	lib, err := h.library(ctx, cfg, w, spec.FFWarm)
	if err != nil {
		t.Fatal(err)
	}
	starts, err := planStarts(lib.total, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range starts {
		j := start / lib.stride
		key := fmt.Sprintf("%s|%s|%d|%s|window/%s/%d/%d+%d/%d", cfg.Name, w.Name, cfg.Width, cfg.IdealBypass,
			lib.prints[j], spec.FFWarm, start-j*lib.stride, spec.Warmup, spec.Measure)
		if _, ok := h.cache.Get(key); !ok {
			t.Errorf("no cached window under %q", key)
		}
	}
}

// TestWarmMatrixAliasRefused: the alias guard holds on the caller-goroutine
// path: a second config under a cached cell's name is refused with
// ErrBadCell, not answered with the first config's result.
func TestWarmMatrixAliasRefused(t *testing.T) {
	h, _ := poolHarness(t, 1, nil)
	ctx := context.Background()
	wls := workload.SPECint95()[:2]
	stock := machine.NewRBFull(4)
	if _, err := h.RunMatrix(ctx, []machine.Config{stock}, wls); err != nil {
		t.Fatal(err)
	}
	alias, err := machine.WithWindow(stock, 32)
	if err != nil {
		t.Fatal(err)
	}
	alias.Name = stock.Name
	if _, err := h.RunMatrix(ctx, []machine.Config{alias}, wls); !errors.Is(err, ErrBadCell) {
		t.Fatalf("warm matrix under an aliased name: err %v, want ErrBadCell", err)
	}
}

// countingRunner counts the cells a figure looks up through a harness's
// RunMatrix (Figures 9 and 13 call nothing else).
type countingRunner struct {
	*Harness
	lookups int64
}

func (c *countingRunner) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	c.lookups += int64(len(cfgs) * len(wls))
	return c.Harness.RunMatrix(ctx, cfgs, wls)
}

// TestCellCountersExact: over a cold and then a warm Figure 9 plus Figure
// 13, the cell cache counts every lookup exactly once (probe hits under
// Get, misses and joins under Do), and every miss is one simulation.
func TestCellCountersExact(t *testing.T) {
	h := NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	r := &countingRunner{Harness: h}
	for pass := 0; pass < 2; pass++ {
		if _, err := Figure9(ctx, r); err != nil {
			t.Fatal(err)
		}
		if _, err := Figure13(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	st := h.CacheStats()
	if got := st.Hits + st.Joins + st.Misses; got != r.lookups {
		t.Errorf("hits %d + joins %d + misses %d = %d, want %d cell lookups", st.Hits, st.Joins, st.Misses, got, r.lookups)
	}
	if st.Misses != h.Runs() {
		t.Errorf("misses %d, want Runs() = %d", st.Misses, h.Runs())
	}
	cfgs, wls := fig9Cells()
	if want := int64(len(cfgs) * len(wls)); h.Runs() != want {
		t.Errorf("fig9 and fig13 simulated %d cells, want fig9's %d", h.Runs(), want)
	}
}
