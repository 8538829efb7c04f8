package grid

// Warm-path tests of the router and the batch tee: a cell the shared tier
// holds is answered on the caller's goroutine, so a warm matrix calls no
// RunCell and no transport, the tee still reports every cell once, and the
// alias guard and config validation hold on that path as they do in Do.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// unitCell answers any full cell with a result naming it.
func unitCell(_ context.Context, req *CellRequest) (*CellResult, error) {
	return &CellResult{Key: req.Key(), Result: &core.Result{
		Machine: req.Config.Name, Workload: req.Workload, Cycles: 2, Instructions: 1,
	}}, nil
}

// countingRouter is a Router whose RunCell calls are counted; its
// LookupCell and RunMatrix are the router's own.
type countingRouter struct {
	*Router
	cells atomic.Int64
}

func (c *countingRouter) RunCell(ctx context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	c.cells.Add(1)
	return c.Router.RunCell(ctx, cfg, w)
}

// observer counts OnCell calls by key.
type observer struct {
	mu   sync.Mutex
	seen map[string]int
}

func (o *observer) onCell(res *CellResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.seen == nil {
		o.seen = make(map[string]int)
	}
	o.seen[res.Key]++
}

// onceEach fails unless exactly n distinct cells were observed, each once.
func (o *observer) onceEach(t *testing.T, label string, n int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.seen) != n {
		t.Errorf("%s: observed %d distinct cells, want %d", label, len(o.seen), n)
	}
	for key, k := range o.seen {
		if k != 1 {
			t.Errorf("%s: cell %s observed %d times, want 1", label, key, k)
		}
	}
}

// TestWarmTeeRunsNoCell: after a cold Figure-9 matrix through a tee over
// the router, a warm one through the same tee calls the router's RunCell
// zero times and reaches no worker, and OnCell has fired exactly once per
// cell across both runs. A fresh tee over the warm router observes every
// cell once, from lookups alone.
func TestWarmTeeRunsNoCell(t *testing.T) {
	w := &fakeTransport{name: "w0", fn: unitCell}
	inner := &countingRouter{Router: newTestRouter(t, w)}
	var obs observer
	tee := &TeeRunner{R: inner, OnCell: obs.onCell}
	ctx := context.Background()
	cfgs, wls := machine.All(8), workload.SPECint2000()
	n := len(cfgs) * len(wls)

	cold, err := tee.RunMatrix(ctx, cfgs, wls)
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.cells.Load(); got != int64(n) {
		t.Fatalf("cold matrix called RunCell %d times, want %d", got, n)
	}
	calls := w.calls.Load()
	warm, err := tee.RunMatrix(ctx, cfgs, wls)
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.cells.Load() - int64(n); got != 0 {
		t.Errorf("warm matrix called RunCell %d times, want 0", got)
	}
	if got := w.calls.Load() - calls; got != 0 {
		t.Errorf("warm matrix made %d transport calls, want 0", got)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("warm matrix differs from the cold one")
	}
	obs.onceEach(t, "cold then warm", n)

	var fresh observer
	if _, err := (&TeeRunner{R: inner, OnCell: fresh.onCell}).RunMatrix(ctx, cfgs, wls); err != nil {
		t.Fatal(err)
	}
	fresh.onceEach(t, "fresh tee, warm router", n)
	if got := inner.cells.Load() - int64(n); got != 0 {
		t.Errorf("fresh tee called RunCell %d times, want 0", got)
	}
}

// TestPartlyWarmRouterRoutesMisses: a matrix whose first rows the shared
// tier holds routes exactly the cells of the other rows, and the tee still
// observes every cell.
func TestPartlyWarmRouterRoutesMisses(t *testing.T) {
	w := &fakeTransport{name: "w0", fn: unitCell}
	inner := &countingRouter{Router: newTestRouter(t, w)}
	ctx := context.Background()
	cfgs, wls := machine.All(8), workload.SPECint2000()
	const warmRows = 2
	if _, err := inner.RunMatrix(ctx, cfgs[:warmRows], wls); err != nil {
		t.Fatal(err)
	}
	calls, cells := w.calls.Load(), inner.cells.Load()
	var obs observer
	if _, err := (&TeeRunner{R: inner, OnCell: obs.onCell}).RunMatrix(ctx, cfgs, wls); err != nil {
		t.Fatal(err)
	}
	misses := int64((len(cfgs) - warmRows) * len(wls))
	if got := w.calls.Load() - calls; got != misses {
		t.Errorf("partly warm matrix made %d transport calls, want %d", got, misses)
	}
	if got := inner.cells.Load() - cells; got != misses {
		t.Errorf("partly warm matrix called RunCell %d times, want %d", got, misses)
	}
	obs.onceEach(t, "partly warm", len(cfgs)*len(wls))
}

// TestWarmMatrixAliasRefusedByRouter: once the shared tier holds a cell, a
// second config under its name is refused with ErrBadCell on the lookup
// path, through the router and through a tee, and reaches no worker.
func TestWarmMatrixAliasRefusedByRouter(t *testing.T) {
	w := &fakeTransport{name: "w0", fn: unitCell}
	r := newTestRouter(t, w)
	ctx := context.Background()
	stock, alias := aliasOf()
	wls := []*workload.Workload{mustWL(t, "compress"), mustWL(t, "mcf")}
	if _, err := r.RunMatrix(ctx, []machine.Config{stock}, wls); err != nil {
		t.Fatal(err)
	}
	calls := w.calls.Load()
	if _, err := r.RunMatrix(ctx, []machine.Config{alias}, wls); !errors.Is(err, ErrBadCell) {
		t.Errorf("router: alias matrix err = %v, want ErrBadCell", err)
	}
	var obs observer
	if _, err := (&TeeRunner{R: r, OnCell: obs.onCell}).RunMatrix(ctx, []machine.Config{alias}, wls); !errors.Is(err, ErrBadCell) {
		t.Errorf("tee: alias matrix err = %v, want ErrBadCell", err)
	}
	if got := w.calls.Load() - calls; got != 0 {
		t.Errorf("alias matrices made %d transport calls, want 0", got)
	}
	obs.onceEach(t, "refused alias", 0)
}

// TestRouterLookupValidates: a hit on a cell the router computed holds the
// config Do validated, and answers an equal one; a journal-seeded cell
// holds no config, so the lookup validates the caller's as Do would and
// refuses an invalid config or workload under the seeded key with
// ErrBadCell.
func TestRouterLookupValidates(t *testing.T) {
	w := &fakeTransport{name: "w0", fn: unitCell}
	r := newTestRouter(t, w)
	ctx := context.Background()
	wl := mustWL(t, "compress")

	computed := machine.NewRBFull(4)
	if _, err := r.RunCell(ctx, computed, wl); err != nil {
		t.Fatal(err)
	}
	calls := w.calls.Load()
	lookup := func(cfg machine.Config, wl *workload.Workload) (*core.Result, bool, error) {
		return r.LookupCell((&CellRequest{Config: cfg, Workload: wl.Name}).Key(), &cfg, wl)
	}
	if res, ok, err := lookup(computed, wl); !ok || err != nil || res == nil {
		t.Errorf("computed cell: lookup = %v, %v, %v; want a hit", res, ok, err)
	}

	seeded := machine.NewBaseline(4)
	seed := &CellRequest{Config: seeded, Workload: wl.Name}
	r.Seed(&CellResult{Key: seed.Key(), Result: &core.Result{Cycles: 3, Instructions: 1}})
	if res, ok, err := lookup(seeded, wl); !ok || err != nil || res.Cycles != 3 {
		t.Errorf("seeded cell, valid config: lookup = %v, %v, %v; want the seeded result", res, ok, err)
	}
	bad := seeded
	bad.Latencies[0].Exec = 0
	if (&CellRequest{Config: bad, Workload: wl.Name}).Key() != seed.Key() {
		t.Fatal("the invalid config must share the seeded cell's key")
	}
	if _, ok, err := lookup(bad, wl); !ok || !errors.Is(err, ErrBadCell) {
		t.Errorf("seeded cell, invalid config: lookup = %v, %v; want ErrBadCell", ok, err)
	}
	nope := &workload.Workload{Name: "no-such-workload"}
	r.Seed(&CellResult{Key: (&CellRequest{Config: seeded, Workload: nope.Name}).Key(), Result: &core.Result{}})
	if _, ok, err := lookup(seeded, nope); !ok || !errors.Is(err, ErrBadCell) {
		t.Errorf("seeded cell, unknown workload: lookup = %v, %v; want ErrBadCell", ok, err)
	}
	if _, err := r.RunMatrix(ctx, []machine.Config{bad}, []*workload.Workload{wl}); !errors.Is(err, ErrBadCell) {
		t.Errorf("seeded cell, invalid config: matrix err = %v, want ErrBadCell", err)
	}
	if got := w.calls.Load() - calls; got != 0 {
		t.Errorf("lookups made %d transport calls, want 0", got)
	}
}
