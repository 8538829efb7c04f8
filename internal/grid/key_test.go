package grid

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// recorder is a Runner that simulates nothing: it records every config an
// experiment asks for and answers each cell with a unit result.
type recorder struct {
	mu   sync.Mutex
	cfgs []machine.Config
}

func (r *recorder) RunCell(_ context.Context, cfg machine.Config, w *workload.Workload) (*core.Result, error) {
	return &core.Result{Machine: cfg.Name, Workload: w.Name, Cycles: 1, Instructions: 1}, nil
}

func (r *recorder) RunMatrix(ctx context.Context, cfgs []machine.Config, wls []*workload.Workload) (map[string]map[string]*core.Result, error) {
	r.mu.Lock()
	r.cfgs = append(r.cfgs, cfgs...)
	r.mu.Unlock()
	return experiments.Matrix(ctx, cfgs, wls, nil, nil, r.RunCell)
}

// TestCellKeyPinned pins the cell key byte for byte for every config the
// paper machines, Figure 14, the sweeps, and a batch with windows and
// no-bypass levels produce. Rendezvous routing and existing journals depend
// on these exact strings.
func TestCellKeyPinned(t *testing.T) {
	ctx := context.Background()
	var cfgs []machine.Config
	cfgs = append(cfgs, machine.All(4)...)
	cfgs = append(cfgs, machine.All(8)...)
	fig14, sweeps := &recorder{}, &recorder{}
	if _, err := experiments.Figure14(ctx, fig14); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Sweeps(ctx, sweeps); err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, fig14.cfgs...)
	cfgs = append(cfgs, sweeps.cfgs...)
	var cells []CellRequest
	for _, c := range cfgs {
		cells = append(cells, CellRequest{Config: c, Workload: "compress"})
	}
	batch := &BatchSpec{
		Machines: []string{"baseline", "rb-full", "staggered"}, Widths: []int{4, 8},
		Windows: []int{32, 256}, NoBypassLevels: []string{"2", "1,2"}, Workloads: []string{"gcc"},
	}
	more, err := batch.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells = append(cells, more...)
	sampled := &BatchSpec{
		Machines: []string{"rb-full"}, NoBypassLevels: []string{"2"}, Workloads: []string{"gcc"},
		Sampled: &experiments.SampleSpec{Samples: 10, Warmup: 2000, Measure: 1000, FFWarm: 4096},
	}
	if more, err = sampled.Cells(); err != nil {
		t.Fatal(err)
	}
	cells = append(cells, more...)

	want := []string{
		"Baseline-4|compress|4|Full|full",
		"RB-limited-4|compress|4|Full|full",
		"RB-full-4|compress|4|Full|full",
		"Ideal-4|compress|4|Full|full",
		"Baseline-8|compress|8|Full|full",
		"RB-limited-8|compress|8|Full|full",
		"RB-full-8|compress|8|Full|full",
		"Ideal-8|compress|8|Full|full",
		"Ideal-4-Full|compress|4|Full|full",
		"Ideal-4-No-1|compress|4|No-1|full",
		"Ideal-4-No-2|compress|4|No-2|full",
		"Ideal-4-No-3|compress|4|No-3|full",
		"Ideal-4-No-1,2|compress|4|No-1,2|full",
		"Ideal-4-No-2,3|compress|4|No-2,3|full",
		"Ideal-8-Full|compress|8|Full|full",
		"Ideal-8-No-1|compress|8|No-1|full",
		"Ideal-8-No-2|compress|8|No-2|full",
		"Ideal-8-No-3|compress|8|No-3|full",
		"Ideal-8-No-1,2|compress|8|No-1,2|full",
		"Ideal-8-No-2,3|compress|8|No-2,3|full",
		"Baseline-8-win32|compress|8|Full|full",
		"RB-full-8-win32|compress|8|Full|full",
		"Baseline-8-win64|compress|8|Full|full",
		"RB-full-8-win64|compress|8|Full|full",
		"Baseline-8-win128|compress|8|Full|full",
		"RB-full-8-win128|compress|8|Full|full",
		"Baseline-8-win256|compress|8|Full|full",
		"RB-full-8-win256|compress|8|Full|full",
		"Baseline-2-win128|compress|2|Full|full",
		"RB-full-2-win128|compress|2|Full|full",
		"Baseline-4-win128|compress|4|Full|full",
		"RB-full-4-win128|compress|4|Full|full",
		"Baseline-16-win128|compress|16|Full|full",
		"RB-full-16-win128|compress|16|Full|full",
		"Baseline-4-win32|gcc|4|Full|full",
		"Baseline-4-win256|gcc|4|Full|full",
		"RB-full-4-win32|gcc|4|Full|full",
		"RB-full-4-win256|gcc|4|Full|full",
		"Staggered-4-win32|gcc|4|Full|full",
		"Staggered-4-win256|gcc|4|Full|full",
		"Ideal-4-No-2|gcc|4|No-2|full",
		"Ideal-4-No-1,2|gcc|4|No-1,2|full",
		"Baseline-8-win32|gcc|8|Full|full",
		"Baseline-8-win256|gcc|8|Full|full",
		"RB-full-8-win32|gcc|8|Full|full",
		"RB-full-8-win256|gcc|8|Full|full",
		"Staggered-8-win32|gcc|8|Full|full",
		"Staggered-8-win256|gcc|8|Full|full",
		"Ideal-8-No-2|gcc|8|No-2|full",
		"Ideal-8-No-1,2|gcc|8|No-1,2|full",
		"RB-full-8|gcc|8|Full|sampled/10/2000/1000/4096",
		"Ideal-8-No-2|gcc|8|No-2|sampled/10/2000/1000/4096",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i := range cells {
		c := &cells[i]
		if got := c.Key(); got != want[i] {
			t.Errorf("cell %d: Key() = %q, want %q", i, got, want[i])
		}
		if got := experiments.CellKey(&c.Config, c.Workload, c.Sampled); got != want[i] {
			t.Errorf("cell %d: CellKey = %q, want %q", i, got, want[i])
		}
	}
}

// aliasOf returns the stock RB-full-8 and a 32-entry-window config carrying
// the same name: two configs, one cell key.
func aliasOf() (stock, small machine.Config) {
	stock = machine.NewRBFull(8)
	small = stock
	small.WindowSize = 32
	small.SchedulerSize = 32 / small.NumSchedulers
	return stock, small
}

// TestAliasNeverAnswered: two configs under one name never return each
// other's result — not from the router's shared tier, not from a worker
// harness behind a fresh router, and not from the sampler's window cache.
func TestAliasNeverAnswered(t *testing.T) {
	ctx := context.Background()
	stock, small := aliasOf()
	h := experiments.NewHarness(2)
	defer h.Close()
	router := newTestRouter(t, &harnessWorker{name: "local", h: h})
	first, err := router.Do(ctx, &CellRequest{Config: small, Workload: "compress"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.Do(ctx, &CellRequest{Config: stock, Workload: "compress"}); !errors.Is(err, ErrBadCell) {
		t.Fatalf("router tier: stock after alias err = %v, want ErrBadCell", err)
	}
	// A second router misses its own tier and reaches the harness, whose
	// cell cache holds the alias.
	if _, err := newTestRouter(t, &harnessWorker{name: "local", h: h}).Do(ctx, &CellRequest{Config: stock, Workload: "compress"}); !errors.Is(err, ErrBadCell) {
		t.Fatalf("harness tier: stock after alias err = %v, want ErrBadCell", err)
	}
	// The alias result is the 32-entry machine's own.
	w := mustWL(t, "compress")
	fresh, err := experiments.NewHarness(1).RunCell(ctx, small, w)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.Cycles != fresh.Cycles {
		t.Fatalf("alias cell cycles = %d, want %d", first.Result.Cycles, fresh.Cycles)
	}

	// Sampled: the window cache is keyed by the same name.
	spec := &experiments.SampleSpec{Samples: 2, Warmup: 200, Measure: 200}
	if _, err := RunLocal(ctx, h, &CellRequest{Config: small, Workload: "compress", Sampled: spec}, inline); err != nil {
		t.Fatal(err)
	}
	_, err = RunLocal(ctx, h, &CellRequest{Config: stock, Workload: "compress", Sampled: spec}, inline)
	if !errors.Is(err, ErrBadCell) {
		t.Fatalf("sampled: stock after alias err = %v, want ErrBadCell", err)
	}
}
