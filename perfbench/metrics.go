package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"runtime/metrics"

	"repro/internal/experiments"
)

type sampleSpec = experiments.SampleSpec

// metricDef describes one metric. BENCHMARK.json lists the same metrics
// with the same units, directions and bounds; the self-test holds the two
// in agreement.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are the metrics a user of each workload sees. Every workload
// reports all of them, from a run with no instrumentation.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},           // median of the run's set-ups: traces, programs, oracle, server boot
	{"wall_s", "s", "lower", 0.25},            // median time of one cold repetition (grid-batch: the cold batch)
	{"warm_p50_ms", "ms", "lower", 0.25},      // latency of a warm request, closed loop
	{"warm_p99_ms", "ms", "lower", 0.25},      // median over windows of p99Window warm requests of each window's p99
	{"warm_req_per_s", "1/s", "higher", 0.25}, // warm requests completed per second
	{"peak_heap_mb", "MB", "lower", 0.1},      // highest live heap right after a cold repetition, its results still held
}

// perLayer are the metrics of an instrumented run, each measured around
// the calls into one layer. The comments name the end-to-end metric each
// should move, and on which workload.
var perLayer = []metricDef{
	{"workload.trace_s", "s", "lower", 0},             // setup_s (figures, grid-batch)
	{"emu.minst_per_s", "Minst/s", "higher", 0},       // wall_s (sampled)
	{"ckpt.warm_minst_per_s", "Minst/s", "higher", 0}, // wall_s (sampled)
	{"sampled.library_s", "s", "lower", 0},            // wall_s (sampled)
	{"sampled.cells_s", "s", "lower", 0},              // wall_s (sampled)
	{"sampled.cells", "count", "lower", 0},
	{"sampled.detailed_insts", "count", "lower", 0},
	{"sampled.ipc_err_pct", "%", "lower", 0}, // the estimate's accuracy; gated, not timed
	{"core.cell_ms.p50", "ms", "lower", 0},   // wall_s (figures, grid-batch)
	{"core.cell_ms.p99", "ms", "lower", 0},
	{"core.ns_per_inst", "ns", "lower", 0},       // wall_s (figures)
	{"core.alloc_kb_per_cell", "KB", "lower", 0}, // wall_s, peak_heap_mb (figures)
	{"core.cells", "count", "lower", 0},
	{"core.insts", "count", "lower", 0},
	{"core.cycles", "count", "lower", 0},
	{"core.issue.cpu_pct", "%", "lower", 0}, // CPU shares of a figures regeneration, all → wall_s (figures)
	{"core.execute.cpu_pct", "%", "lower", 0},
	{"core.dispatch.cpu_pct", "%", "lower", 0},
	{"core.deps.cpu_pct", "%", "lower", 0},
	{"core.fetch.cpu_pct", "%", "lower", 0},
	{"core.newsim.cpu_pct", "%", "lower", 0},
	{"sched.cpu_pct", "%", "lower", 0},
	{"mem.cpu_pct", "%", "lower", 0},
	{"branch.cpu_pct", "%", "lower", 0},
	{"runtime.copy.cpu_pct", "%", "lower", 0},
	{"runtime.gc.cpu_pct", "%", "lower", 0},
	{"pool.wait_ms.p50", "ms", "lower", 0},                // wall_s (figures)
	{"pool.busy_ratio", "ratio", "higher", 0},             // wall_s (figures)
	{"experiments.cache_hit_ratio", "ratio", "higher", 0}, // wall_s (figures)
	{"grid.rpc_ms.p50", "ms", "lower", 0},                 // wall_s (grid-batch), as are the grid counts below
	{"grid.rpc_ms.p99", "ms", "lower", 0},
	{"grid.wire_ms.p50", "ms", "lower", 0},
	{"grid.max_worker_share", "ratio", "lower", 0},
	{"grid.useful_ratio", "ratio", "higher", 0},
	{"grid.hedges", "count", "lower", 0},
	{"grid.failovers", "count", "lower", 0},
	{"grid.routed.w0", "count", "lower", 0}, // cells first routed to each worker: repeat exactly
	{"grid.routed.w1", "count", "lower", 0},
	{"grid.shared_hit_ratio", "ratio", "higher", 0}, // warm_p50_ms (grid-batch)
	{"server.cell_ms.p50", "ms", "lower", 0},        // wall_s (grid-batch)
	{"server.batch_ms.p50", "ms", "lower", 0},       // warm_p50_ms, warm_req_per_s (grid-batch)
	{"server.sim_ms.p50", "ms", "lower", 0},         // warm_p50_ms, warm_req_per_s (grid-batch)
	{"server.resp_hit_ratio", "ratio", "higher", 0}, // warm_p50_ms (grid-batch)
	{"server.rejected_429", "count", "lower", 0},    // the run's failed operations
	{"bench.trace_overhead_pct", "%", "lower", 0},   // traced over untraced cold repetition
	{"bench.error_rate", "fraction", "lower", 0},    // failed ÷ attempted operations
}

// oracleDigests are the sha256 digests of `rbexp -exp <fig> -parallel 1`
// output, the serial oracle, at the commit that added this benchmark.
//
//go:embed digests.json
var digestsJSON []byte

var oracleDigests = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// liveHeap is the heap the last garbage collection found live, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
