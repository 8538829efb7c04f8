package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

func testSpec() SampleSpec {
	return SampleSpec{Samples: 10, Warmup: 2000, Measure: 2000}
}

// TestSampledAccuracy checks the statistical guarantee SMARTS actually makes:
// the full-run oracle IPC lands inside the sampled estimate's reported 95%
// confidence interval. The tier-1 workloads are short (tens to hundreds of
// thousands of instructions) and strongly phased, so cell-placement variance
// dominates — point error bounces with k while the CI stays honest.
func TestSampledAccuracy(t *testing.T) {
	h := NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	cfg := machine.NewRBFull(8)
	for _, name := range []string{"gcc00", "gzip", "mcf"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		full, err := h.RunCell(ctx, cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := h.RunSampled(ctx, cfg, w, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(sampled.MeanIPC-full.IPC()) / full.IPC()
		t.Logf("%s: full %.4f sampled %.4f ±%.4f (err %.2f%%)",
			name, full.IPC(), sampled.MeanIPC, sampled.CI95, 100*relErr)
		if math.Abs(sampled.MeanIPC-full.IPC()) > sampled.CI95 {
			t.Errorf("%s: full-run IPC %.4f outside sampled CI %.4f ±%.4f",
				name, full.IPC(), sampled.MeanIPC, sampled.CI95)
		}
	}
}

// TestSampledAccuracyLarge checks point accuracy where the law of large
// numbers has room to work: on a generated multi-million-instruction workload
// the sampled estimate must land within ±2% of the full-run oracle (and
// inside its own CI). This is the acceptance-criteria configuration that
// BenchmarkSampledSimulation times.
func TestSampledAccuracyLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run oracle over millions of instructions")
	}
	h := NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	cfg := machine.NewRBFull(8)
	w, err := workload.Generate(workload.GenParams{
		Name: "sampled-acc-2m", Iterations: 80000, BranchTakenPercent: 85, MulOps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := h.RunCell(ctx, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := h.RunSampled(ctx, cfg, w, SampleSpec{Samples: 50, Warmup: 500, Measure: 500})
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(sampled.MeanIPC-full.IPC()) / full.IPC()
	t.Logf("full %.4f (%d insts) sampled %.4f ±%.4f (err %.2f%%)",
		full.IPC(), full.Instructions, sampled.MeanIPC, sampled.CI95, 100*relErr)
	if relErr > 0.02 {
		t.Errorf("sampled IPC %.4f is %.2f%% from full-run %.4f (limit 2%%)",
			sampled.MeanIPC, 100*relErr, full.IPC())
	}
	if math.Abs(sampled.MeanIPC-full.IPC()) > sampled.CI95 {
		t.Errorf("full-run IPC %.4f outside sampled CI %.4f ±%.4f",
			full.IPC(), sampled.MeanIPC, sampled.CI95)
	}
}

// TestSampledDeterminism pins byte-identical sampled output across
// independent harnesses (fresh caches, parallel pools): same spec, same
// workload, same rendered result.
func TestSampledDeterminism(t *testing.T) {
	w, _ := workload.ByName("gcc00")
	cfg := machine.NewBaseline(4)
	render := func() string {
		h := NewHarness(4)
		defer h.Close()
		r, err := h.RunSampled(context.Background(), cfg, w, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s cells=%v", r, r.CellIPCs)
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("sampled output not deterministic:\n%s\n%s", a, b)
	}
}

// TestSampledBackendsIdentical: a harness running the poll backend takes it
// into every sampled window, and the estimate is byte-identical to the
// event harness's.
func TestSampledBackendsIdentical(t *testing.T) {
	w, _ := workload.ByName("gcc00")
	cfg := machine.NewRBLimited(8)
	render := func(b core.Backend) string {
		h := NewHarness(2)
		h.Backend = b
		defer h.Close()
		r, err := h.RunSampled(context.Background(), cfg, w, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s %+v", r, *r)
	}
	if ev, po := render(core.BackendEvent), render(core.BackendPoll); ev != po {
		t.Fatalf("sampled estimate differs across backends:\nevent %s\npoll  %s", ev, po)
	}
}

// TestSampledCacheHit proves sampled cells memoize: a second identical
// request executes zero new simulations, and a machine sharing the cache
// geometry reuses the fast-forward checkpoints.
func TestSampledCacheHit(t *testing.T) {
	h := NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	w, _ := workload.ByName("gzip")
	cfg := machine.NewRBLimited(4)

	first, err := h.RunSampled(ctx, cfg, w, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	runsAfterFirst := h.Runs()
	if runsAfterFirst == 0 {
		t.Fatal("first sampling executed nothing")
	}
	second, err := h.RunSampled(ctx, cfg, w, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if h.Runs() != runsAfterFirst {
		t.Fatalf("re-sampling executed %d new simulations, want 0", h.Runs()-runsAfterFirst)
	}
	if first.MeanIPC != second.MeanIPC {
		t.Fatal("cached sampling changed the estimate")
	}
}

func TestSampledBadSpec(t *testing.T) {
	h := NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	w, _ := workload.ByName("gcc00")
	cfg := machine.NewBaseline(4)
	bad := []SampleSpec{
		{Samples: 1, Warmup: 10, Measure: 10},
		{Samples: 10, Warmup: -1, Measure: 10},
		{Samples: 10, Warmup: 10, Measure: 0},
		{Samples: 10, Warmup: 0, Measure: 10, FFWarm: -5},
		{Samples: 1 << 20, Warmup: 10, Measure: 10},
		// Windows larger than the stride cannot tile the workload.
		{Samples: 4, Warmup: 1 << 20, Measure: 1 << 20},
	}
	for _, spec := range bad {
		if _, err := h.RunSampled(ctx, cfg, w, spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: got %v, want ErrBadSpec", spec, err)
		}
	}
}
