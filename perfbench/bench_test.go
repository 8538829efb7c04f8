package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny is a run small enough for a unit test: one 12-cell figure (also
// the grid batch), a short generated program and one set-up; a zero
// budget makes one repetition.
var tiny = size{
	figures:  []string{"fig13"},
	batch:    "fig13",
	genIters: 20000,
	spec:     sampleSpec{Samples: 10, Warmup: 300, Measure: 300},
	simCells: 2,
	warm:     50 * time.Millisecond,
	setups:   1,
}

func tinyRun(t *testing.T, name string, traced bool, digests map[string]string) *record {
	t.Helper()
	rec, err := execute(context.Background(), name, config{seed: 7, traced: traced, size: tiny, digests: digests})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}

// TestTablesMatchBenchmarkFile holds the metric tables and the workload
// list to BENCHMARK.json, the file the benchmark is run from.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\ndiffers from endToEnd\n%v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\ndiffers from perLayer\n%v", file.PerLayer, perLayer)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size, plain
// and traced. Every run must pass its own checks and emit every metric of
// BENCHMARK.json in its unit, and a traced run must have measured the
// layers its workload calls.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	reached := map[string][]string{
		"figures": {"workload.trace_s", "core.cells", "core.cell_ms.p50", "core.ns_per_inst",
			"core.issue.cpu_pct", "pool.busy_ratio", "bench.trace_overhead_pct"},
		"sampled": {"emu.minst_per_s", "ckpt.warm_minst_per_s", "sampled.cells", "sampled.cells_s",
			"sampled.library_s", "sampled.detailed_insts", "sampled.ipc_err_pct"},
		"grid-batch": {"workload.trace_s", "grid.rpc_ms.p50", "grid.wire_ms.p50", "grid.useful_ratio",
			"grid.max_worker_share", "grid.shared_hit_ratio", "server.cell_ms.p50", "server.batch_ms.p50",
			"server.sim_ms.p50", "server.resp_hit_ratio"},
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rec := tinyRun(t, name, traced, oracleDigests)
			res, err := rec.result()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, rec.Failed, rec.Attempted, rec.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s is %+v, want unit %s", name, traced, d.Name, v, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, v.Value)
				}
			}
			if traced {
				for _, m := range reached[name] {
					if v := res.Metrics[m].Value; v == 0 {
						t.Errorf("%s: traced %s = 0, want a measurement", name, m)
					}
				}
			}
		}
	}
}

// TestCorruptDigestCountsAsError replaces the oracle digest of the figure
// both the figures and grid-batch workloads render: every check of it
// must then fail, and show in the error rate.
func TestCorruptDigestCountsAsError(t *testing.T) {
	bad := map[string]string{}
	for k, v := range oracleDigests {
		bad[k] = v
	}
	bad[tiny.batch] = strings.Repeat("0", 64)
	for _, name := range []string{"figures", "grid-batch"} {
		rec := tinyRun(t, name, false, bad)
		res, err := rec.result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || rec.Failed == 0 || rec.ErrorRate <= 0 {
			t.Errorf("%s with a corrupt digest: correct=%v failed=%d error_rate=%v", name, res.Correct, rec.Failed, rec.ErrorRate)
		}
	}
}

func TestQuartilesAndVerdict(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
	wall := metricDef{"wall_s", "s", "lower", 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	noisy := []float64{6, 14, 8, 12, 7, 13, 9, 11, 10, 10}
	times := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{base, times(base, 0.8), "better"},
		{base, times(base, 1.2), "worse"},
		{base, times(base, 1.01), "same"},
		{noisy, noisy, "unresolved"},
		// The before spread is wider than the bound: winning every pair
		// is not enough while some after run is slower than a before run.
		{noisy, times(noisy, 0.5), "unresolved"},
		{noisy, times(noisy, 0.4), "better"},
	} {
		if got := verdict(wall, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestPairBySeed pairs two sets of runs by seed, whatever their order, and
// leaves out a seed run on one side only.
func TestPairBySeed(t *testing.T) {
	runOf := func(seed uint64, wall float64) *record {
		return &record{Workload: "figures", Seed: seed, Metrics: map[string]float64{"wall_s": wall}, Work: map[string]int64{"cells": 336}}
	}
	before := []*record{runOf(3, 30), runOf(1, 10), runOf(2, 20)}
	after := []*record{runOf(4, 41), runOf(2, 21), runOf(3, 31)}
	p := pairBySeed(before, after, "figures", 0)
	a, b := p.values("wall_s", scaled)
	if !reflect.DeepEqual(a, []float64{20, 30}) || !reflect.DeepEqual(b, []float64{21, 31}) {
		t.Errorf("paired values %v, %v; want [20 30], [21 31]", a, b)
	}
	if want := []string{"before seed 1", "after seed 4"}; !reflect.DeepEqual(p.unpaired, want) {
		t.Errorf("unpaired %v, want %v", p.unpaired, want)
	}
	if got := workDiff(p.pairs); !strings.HasPrefix(got, "identical") {
		t.Errorf("workDiff = %q, want identical", got)
	}
	after[1].Work = map[string]int64{"cells": 335}
	if got := workDiff(p.pairs); !strings.Contains(got, "seed 2 trace 0 cells: 336 before, 335 after") {
		t.Errorf("workDiff = %q, want the seed 2 cells difference", got)
	}
}

// TestGridBatchManyClients runs grid-batch with more warm clients than a
// server admits by default: the coordinator must admit them all, so no
// request is shed with 429.
func TestGridBatchManyClients(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rec := tinyRun(t, "grid-batch", false, oracleDigests)
	if rec.Failed != 0 || rec.Totals["rejected_429"] != 0 {
		t.Errorf("8 clients: %d of %d operations failed, %d shed: %v", rec.Failed, rec.Attempted, rec.Totals["rejected_429"], rec.Problems)
	}
}
