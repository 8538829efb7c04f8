// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact end to end and reporting the headline metric), plus component
// microbenchmarks and the ablation studies called out in DESIGN.md §8.
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/isa"
	"repro/internal/lint"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rb"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- Per-figure benchmarks -------------------------------------------------
// Each runs the full (machine x workload) matrix for one paper artifact with
// no memoization, so the reported time is the true regeneration cost, and
// reports the figure's headline number as a custom metric.

// traceOf returns a full trace of the workload.
func traceOf(b *testing.B, w *workload.Workload) []emu.TraceEntry {
	b.Helper()
	t, err := w.Trace()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// decodedOf returns the workload's cached timing trace, building it on first
// use (so callers warm it outside the timed region).
func decodedOf(b *testing.B, w *workload.Workload) *core.Decoded {
	b.Helper()
	dec, err := w.Decoded()
	if err != nil {
		b.Fatal(err)
	}
	return dec
}

// benchBuffers is shared by every cell the benchmarks run: the simulator's
// large backing arrays (window, scheduler, cache tag copies) regrow once and
// are reused, so the reported allocations are the per-run cost a caller with
// a warm harness actually pays, not 20 workloads' worth of fresh arrays.
var benchBuffers = core.NewBuffers()

// runCell simulates one cell as the experiment harness does: on reused
// buffers and the workload's shared timing trace.
func runCell(b *testing.B, cfg machine.Config, w *workload.Workload) *core.Result {
	b.Helper()
	r, err := core.Run(cfg, w.Name, decodedOf(b, w), core.Options{Buffers: benchBuffers})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchIPCFigure regenerates one of Figures 9-12 and reports the RB-full
// speedup over Baseline.
func benchIPCFigure(b *testing.B, width int, wls []*workload.Workload) {
	for _, w := range wls {
		decodedOf(b, w) // warm the trace cache outside the timed region
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		means := map[string]float64{}
		for _, cfg := range machine.All(width) {
			var ipcs []float64
			for _, w := range wls {
				ipcs = append(ipcs, runCell(b, cfg, w).IPC())
			}
			means[cfg.Kind.String()] = stats.HarmonicMean(ipcs)
		}
		speedup = means["RB-full"] / means["Baseline"]
	}
	b.ReportMetric(100*(speedup-1), "rbfull-vs-baseline-%")
}

func BenchmarkFigure9(b *testing.B)  { benchIPCFigure(b, 8, workload.SPECint2000()) }
func BenchmarkFigure10(b *testing.B) { benchIPCFigure(b, 8, workload.SPECint95()) }
func BenchmarkFigure11(b *testing.B) { benchIPCFigure(b, 4, workload.SPECint2000()) }
func BenchmarkFigure12(b *testing.B) { benchIPCFigure(b, 4, workload.SPECint95()) }

// BenchmarkWarmFigures splits a warm regeneration of each figure the
// benchmark's figures workload serves into its two halves: build, the
// figure regenerated from a private harness whose cells were simulated
// once, every one a cache hit read on the caller's goroutine; and render,
// the built figure's text (experiments.RenderText, what rbexp prints and
// /v1/experiment serves).
func BenchmarkWarmFigures(b *testing.B) {
	h := experiments.NewHarness(0)
	defer h.Close()
	ctx := context.Background()
	for _, fig := range []struct {
		name  string
		build func() (experiments.Artifact, error)
	}{
		{"fig9", func() (experiments.Artifact, error) { return experiments.Figure9(ctx, h) }},
		{"fig11", func() (experiments.Artifact, error) { return experiments.Figure11(ctx, h) }},
		{"fig13", func() (experiments.Artifact, error) { return experiments.Figure13(ctx, h) }},
		{"fig14", func() (experiments.Artifact, error) { return experiments.Figure14(ctx, h) }},
	} {
		a, err := fig.build() // simulates the figure's cells once
		if err != nil {
			b.Fatal(err)
		}
		runs := h.Runs()
		b.Run(fig.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fig.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if h.Runs() != runs {
				b.Fatalf("warm regenerations simulated %d cells", h.Runs()-runs)
			}
		})
		b.Run(fig.name+"/render", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchText = experiments.RenderText(a)
			}
		})
	}
}

// benchText keeps the last render live, so the compiler cannot drop it.
var benchText []byte

// BenchmarkFigure13 regenerates the bypass-case distribution and reports the
// average fraction of critical bypasses requiring RB->TC conversion.
func BenchmarkFigure13(b *testing.B) {
	wls := workload.SPECint2000()
	for _, w := range wls {
		decodedOf(b, w)
	}
	cfg := machine.NewRBFull(8)
	b.ResetTimer()
	var avgConv float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, w := range wls {
			r := runCell(b, cfg, w)
			var total int64
			for _, c := range r.LastArriving {
				total += c
			}
			if total > 0 {
				sum += float64(r.ConversionDelayed) / float64(total)
			}
		}
		avgConv = sum / float64(len(wls))
	}
	b.ReportMetric(100*avgConv, "avg-conversion-%")
}

// BenchmarkFigure14 regenerates the limited-bypass study (12 machine
// configurations over all 20 benchmarks) and reports the 8-wide IPC loss
// from removing the second bypass level.
func BenchmarkFigure14(b *testing.B) {
	wls := workload.All()
	for _, w := range wls {
		decodedOf(b, w)
	}
	b.ResetTimer()
	var no2Loss float64
	for i := 0; i < b.N; i++ {
		means := map[string]float64{}
		for _, width := range []int{4, 8} {
			for _, cfg := range fig14Configs(width) {
				var ipcs []float64
				for _, w := range wls {
					ipcs = append(ipcs, runCell(b, cfg, w).IPC())
				}
				means[cfg.Name] = stats.HarmonicMean(ipcs)
			}
		}
		no2Loss = 1 - means["Ideal-8-No-2"]/means["Ideal-8-Full"]
	}
	b.ReportMetric(100*no2Loss, "no2-loss-%")
}

func fig14Configs(width int) []machine.Config {
	var cfgs []machine.Config
	for _, bp := range experiments.Figure14Configs() {
		cfgs = append(cfgs, machine.NewIdealLimited(width, bp))
	}
	return cfgs
}

// BenchmarkTable1Classification measures classifying the full dynamic
// instruction stream into the paper's Table 1 rows.
func BenchmarkTable1Classification(b *testing.B) {
	var traces [][]emu.TraceEntry
	for _, w := range workload.All() {
		traces = append(traces, traceOf(b, w))
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		var counts [isa.NumTable1Rows]int64
		total = 0
		for _, tr := range traces {
			for _, te := range tr {
				counts[isa.ClassOf(te.Inst.Op).Row]++
			}
			total += int64(len(tr))
		}
	}
	b.ReportMetric(float64(total), "instructions")
}

// --- Ablation studies (DESIGN.md §8) ----------------------------------------

// BenchmarkAblationConversionLatency sweeps the RB->TC converter depth.
func BenchmarkAblationConversionLatency(b *testing.B) {
	w, _ := workload.ByName("vortex00")
	decodedOf(b, w)
	for _, conv := range []int64{1, 2, 3} {
		b.Run(fmt.Sprintf("conv%d", conv), func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = fmt.Sprintf("RB-full-8-conv%d", conv)
			for _, cls := range []isa.LatencyClass{isa.LatIntArith, isa.LatIntCompare, isa.LatByteManip, isa.LatShiftLeft} {
				e := cfg.Latencies[cls]
				e.TCExtra = conv
				cfg.Latencies[cls] = e
			}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationSchedulers compares the paper's partitioned select-2
// schedulers against one monolithic window with the same total capacity.
func BenchmarkAblationSchedulers(b *testing.B) {
	w, _ := workload.ByName("go")
	decodedOf(b, w)
	cases := []struct {
		name           string
		num, size, sel int
	}{
		{"4x32-select2", 4, 32, 2},
		{"2x64-select4", 2, 64, 4},
		{"1x128-select8", 1, 128, 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := machine.NewIdeal(8)
			cfg.Name = "Ideal-8-" + c.name
			cfg.NumSchedulers, cfg.SchedulerSize, cfg.SelectWidth = c.num, c.size, c.sel
			cfg.Clusters = 1 // isolate the scheduler effect
			cfg.InterClusterDelay = 0
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationCluster measures the 8-wide machine's clustering penalty.
func BenchmarkAblationCluster(b *testing.B) {
	w, _ := workload.ByName("ijpeg")
	decodedOf(b, w)
	for _, clustered := range []bool{true, false} {
		name := "clustered"
		if !clustered {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = "RB-full-8-" + name
			if !clustered {
				cfg.Clusters = 1
				cfg.InterClusterDelay = 0
			}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationSAM compares sum-addressed memory (1-cycle address
// generation) against a conventional decoder that needs the full add first.
func BenchmarkAblationSAM(b *testing.B) {
	w, _ := workload.ByName("mcf")
	decodedOf(b, w)
	for _, sam := range []bool{true, false} {
		name := "sam"
		if !sam {
			name = "conventional"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = "RB-full-8-" + name
			if !sam {
				e := cfg.Latencies[isa.LatMemory]
				e.Exec = 2 // carry-propagate base+displacement before indexing
				cfg.Latencies[isa.LatMemory] = e
			}
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// --- Component microbenchmarks ----------------------------------------------

func BenchmarkRBAdd(b *testing.B) {
	x, y := rb.FromInt(0x123456789abcdef), rb.FromInt(-0x0fedcba987654321)
	var s rb.Number
	for i := 0; i < b.N; i++ {
		s, _ = rb.Add(x, y)
	}
	_ = s
}

func BenchmarkRBAddDigitSerial(b *testing.B) {
	x, y := rb.FromInt(0x123456789abcdef), rb.FromInt(-0x0fedcba987654321)
	var s rb.Number
	for i := 0; i < b.N; i++ {
		s, _ = rb.AddDigitSerial(x, y)
	}
	_ = s
}

func BenchmarkRBMul(b *testing.B) {
	x, y := rb.FromInt(123456789), rb.FromInt(-987654321)
	var s rb.Number
	for i := 0; i < b.N; i++ {
		s = rb.Mul(x, y)
	}
	_ = s
}

func BenchmarkRBConvert(b *testing.B) {
	x := rb.FromInt(0x123456789abcdef)
	var v int64
	for i := 0; i < b.N; i++ {
		v = x.Int()
	}
	_ = v
}

func BenchmarkSAMMatch(b *testing.B) {
	var ok bool
	for i := 0; i < b.N; i++ {
		ok = mem.SAMMatch(uint64(i)*0x9e3779b9, 0x12345678, uint64(i)*0x9e3779b9+0x12345678, 0)
	}
	_ = ok
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mem.MustCache(mem.DefaultConfig().L1D)
	r := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(64 << 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], false)
	}
}

// BenchmarkBranchPredictor measures the front end's fetch-time touch of a
// conditional branch (direction predictor and BTB) that is taken every
// eighth time.
func BenchmarkBranchPredictor(b *testing.B) {
	p := branch.New()
	for i := 0; i < b.N; i++ {
		pc := i & 1023
		p.Fetch(branch.Cond, pc, i&7 == 0, pc+16)
	}
}

// BenchmarkSimulatorThroughput reports simulated instructions per second for
// the full 8-wide RB machine on two paths: per-run is an uncached one-off
// run (Buffers.Run on fresh buffers, decoding the full trace), shared-decode
// the harness's path (reused buffers and the workload's shared timing trace).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("gcc00")
	tr := traceOf(b, w)
	cfg := machine.NewRBFull(8)
	b.Run("per-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewBuffers().Run(cfg, w.Name, tr); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr)), "insts/op")
	})
	b.Run("shared-decode", func(b *testing.B) {
		dec, err := w.Decoded()
		if err != nil {
			b.Fatal(err)
		}
		buf := core.NewBuffers()
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(cfg, w.Name, dec, core.Options{Buffers: buf}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(tr)), "insts/op")
	})
}

func BenchmarkEmulator(b *testing.B) {
	w, _ := workload.ByName("parser")
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := emu.New(p)
		if _, err := e.Run(2_000_000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceBuild measures the trace builds over all twenty workloads,
// in ns per committed instruction: run is plain emulation (the counting
// pass), trace the full trace (emu.Trace) and decoded the timing trace a
// workload's cold Decoded builds (core.DecodeProgram).
func BenchmarkTraceBuild(b *testing.B) {
	var (
		progs []*isa.Program
		insts int64
	)
	wls := workload.All()
	for _, w := range wls {
		p, err := w.Program()
		if err != nil {
			b.Fatal(err)
		}
		n, err := emu.New(p).Run(w.MaxInsts, nil)
		if err != nil {
			b.Fatal(err)
		}
		progs, insts = append(progs, p), insts+n
	}
	for _, c := range []struct {
		name  string
		build func(p *isa.Program, max int64) error
	}{
		{"run", func(p *isa.Program, max int64) error { _, err := emu.New(p).Run(max, nil); return err }},
		{"trace", func(p *isa.Program, max int64) error { _, err := emu.Trace(p, max); return err }},
		{"decoded", func(p *isa.Program, max int64) error { _, err := core.DecodeProgram(p, max); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, p := range progs {
					if err := c.build(p, wls[j].MaxInsts); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*insts), "ns/inst")
		})
	}
}

// BenchmarkAblationClassSchedulers compares unified round-robin steering
// against the §4.3 class-partitioned schedulers on the RB machine.
func BenchmarkAblationClassSchedulers(b *testing.B) {
	w, _ := workload.ByName("crafty")
	decodedOf(b, w)
	for _, split := range []bool{false, true} {
		name := "unified"
		if split {
			name = "class-split"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = "RB-full-8-" + name
			cfg.ClassSchedulers = split
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationDependenceSteering measures the §4.2 future-work steering
// policy against round-robin on the clustered 8-wide machine.
func BenchmarkAblationDependenceSteering(b *testing.B) {
	w, _ := workload.ByName("go")
	decodedOf(b, w)
	for _, dep := range []bool{false, true} {
		name := "round-robin"
		if dep {
			name = "dependence"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = "RB-full-8-steer-" + name
			cfg.DependenceSteering = dep
			var ipc float64
			for i := 0; i < b.N; i++ {
				ipc = runCell(b, cfg, w).IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationWrongPath quantifies the cost of wrong-path resource
// consumption (fetch bandwidth, I-cache pollution, window and select slots)
// relative to the base stall-on-mispredict model, on a mispredict-heavy
// kernel.
func BenchmarkAblationWrongPath(b *testing.B) {
	w, _ := workload.ByName("bzip2")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	dec := decodedOf(b, w)
	for _, wrongPath := range []bool{false, true} {
		name := "stall"
		if wrongPath {
			name = "wrong-path"
		}
		b.Run(name, func(b *testing.B) {
			cfg := machine.NewRBFull(8)
			cfg.Name = "RB-full-8-" + name
			var ipc float64
			for i := 0; i < b.N; i++ {
				var opt core.Options
				if wrongPath {
					opt.WrongPath = emu.New(prog)
				}
				r, err := core.Run(cfg, w.Name, dec, opt)
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkFigure1 regenerates the introduction's three-configuration
// comparison (gate-depth-derived clocks x measured IPC) and reports the RB
// configuration's throughput advantage over the slow 1-cycle-CLA core.
func BenchmarkFigure1(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure1(context.Background(), experiments.Default())
		if err != nil {
			b.Fatal(err)
		}
		adv = d.Throughput[d.Order[2]] / d.Throughput[d.Order[0]]
	}
	b.ReportMetric(adv, "rb-vs-slow-cla-x")
}

// BenchmarkSweepChainLength uses the workload generator to sweep the
// carried-dependence chain length, reporting the Ideal/Baseline IPC ratio —
// the knob the paper's whole argument turns on.
func BenchmarkSweepChainLength(b *testing.B) {
	for _, chain := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("chain%d", chain), func(b *testing.B) {
			w, err := workload.Generate(workload.GenParams{
				Name: fmt.Sprintf("bench-chain-%d", chain), ChainLength: chain,
				Iterations: 1500, Seed: 7,
			})
			if err != nil {
				b.Fatal(err)
			}
			decodedOf(b, w)
			var ratio float64
			for i := 0; i < b.N; i++ {
				base := runCell(b, machine.NewBaseline(4), w)
				ideal := runCell(b, machine.NewIdeal(4), w)
				ratio = ideal.IPC() / base.IPC()
			}
			b.ReportMetric(ratio, "ideal-vs-baseline-x")
		})
	}
}

// BenchmarkSampledSimulation measures checkpointed SMARTS sampling against
// the full-run oracle on a multi-million-instruction generated workload. Each
// iteration runs on a cold harness (no memoized checkpoint library or sample
// cells), so ns/op is the true cost of a first sampled run; speedup-x is the
// full detailed run's wall clock over that, and ipc-err-% is the sampled
// estimate's relative error against the oracle.
func BenchmarkSampledSimulation(b *testing.B) {
	w, err := workload.Generate(workload.GenParams{
		Name: "bench-sampled-3m", Iterations: 120000, BranchTakenPercent: 85, MulOps: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	// The oracle pays what a cold RunCell pays — materializing the committed
	// trace and simulating all of it — but traces directly rather than
	// through the workload cache: millions of entries should not outlive
	// this benchmark.
	cfg := machine.NewRBFull(8)
	t0 := time.Now()
	tr, err := emu.Trace(prog, w.MaxInsts)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.NewBuffers().Run(cfg, w.Name, tr)
	if err != nil {
		b.Fatal(err)
	}
	fullDur := time.Since(t0)
	tr = nil
	spec := experiments.SampleSpec{Samples: 50, Warmup: 500, Measure: 500}
	var sampled *experiments.SampledResult
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		h := experiments.NewHarness(0)
		sampled, err = h.RunSampled(context.Background(), cfg, w, spec)
		h.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	sampledDur := time.Since(start) / time.Duration(b.N)
	b.ReportMetric(float64(fullDur)/float64(sampledDur), "speedup-x")
	b.ReportMetric(100*math.Abs(sampled.MeanIPC-full.IPC())/full.IPC(), "ipc-err-%")
	b.ReportMetric(float64(sampled.TotalInstructions), "insts")
}

// --- Serving-layer benchmark -------------------------------------------------

var (
	benchSrvOnce sync.Once
	benchSrv     *server.Server
)

// BenchmarkServerThroughput measures rbserve's request rate on the
// steady-state path: the simulation behind the request runs once (first
// request misses, fills the response cache) and every timed request after
// that exercises routing, middleware, metrics, and the sharded cache —
// which is what a dashboard polling the service actually pays per request.
func BenchmarkServerThroughput(b *testing.B) {
	benchSrvOnce.Do(func() {
		benchSrv = server.New(server.Config{Logf: func(string, ...any) {}})
	})
	h := benchSrv.Handler()
	const path = "/v1/sim?workload=compress&machine=rb-full&width=8"
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest("GET", path, nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm request failed: %d %s", warm.Code, warm.Body.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("request %d failed: %d", i, rec.Code)
		}
	}
}

// BenchmarkWarmBatch measures a warm /v1/batch?artifact=fig9 through an
// in-process coordinator over two httptest workers, in each aggregate
// format. The first request simulates fig9's cells on the workers and fills
// the coordinator's shared tier; every timed batch after it finds each cell
// there. Batches bypass the response cache, so each one rebuilds the figure
// and serializes it.
func BenchmarkWarmBatch(b *testing.B) {
	quiet := func(string, ...any) {}
	var urls []string
	for i := 0; i < 2; i++ {
		// Admission is raised past the coordinator's routing concurrency,
		// so the cold batch is not shed (TestCoordinatorHTTPDifferential).
		w := server.New(server.Config{Logf: quiet, MaxInflight: 64})
		defer w.Close()
		hs := httptest.NewServer(w.Handler())
		defer hs.Close()
		urls = append(urls, hs.URL)
	}
	coord := server.New(server.Config{Workers: urls, Logf: quiet})
	defer coord.Close()
	h := coord.Handler()
	for _, format := range []string{"json", "text"} {
		path := "/v1/batch?artifact=fig9&format=" + format
		serve := func(b *testing.B) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s = %d: %s", path, rec.Code, rec.Body.String())
			}
		}
		b.Run(format, func(b *testing.B) {
			serve(b) // the cold batch, on the first format
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b)
			}
		})
	}
}

// BenchmarkTable2 and BenchmarkTable3 regenerate the configuration tables
// (they are config dumps, so the benches exist to complete the
// one-bench-per-artifact mapping; their contents are asserted by the
// machine-package tests).
func BenchmarkTable2(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := experiments.RenderTable2(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := experiments.RenderTable3(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultCampaign measures the full quick-tier fault-injection
// campaign (gate sweep + datapath injections + scheduler drops) and reports
// the swept site count, so campaign throughput is recorded PR over PR
// alongside the figure benchmarks.
func BenchmarkFaultCampaign(b *testing.B) {
	var sites int64
	for i := 0; i < b.N; i++ {
		c, err := fault.Run(fault.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		sites = 0
		for _, g := range c.Gates {
			sites += int64(g.Sites)
		}
		for _, d := range c.Datapath {
			sites += int64(d.Targets)
		}
		sites += int64(c.Sched.Drops)
	}
	b.ReportMetric(float64(sites), "sites/op")
}

// BenchmarkPackedEval measures the bit-parallel 64-lane netlist engine on
// the 64-digit RB adder: one faulted evaluation resolves 64 lanes, so the
// lane-evaluation rate is the number the gate sweep's speedup comes from.
// The sibling scalar case walks the same netlist once per call (one lane)
// to keep the per-lane comparison in the same report.
func BenchmarkPackedEval(b *testing.B) {
	r := gates.RBAdder(64)
	outs := append(append(append(append([]gates.Node(nil),
		r.SumPlus...), r.SumMinus...), r.CoutPlus), r.CoutMinus)
	in := make([]uint64, r.C.NumInputs())
	rnd := rand.New(rand.NewSource(11))
	for i := range in {
		in[i] = rnd.Uint64()
	}
	nets := r.C.Nets()
	faults := make([]gates.PackedFault, 64)
	for k := range faults {
		faults[k] = gates.PackedFault{
			Net:   nets[rnd.Intn(len(nets))],
			Model: gates.FaultModel(k % int(gates.NumFaultModels)),
			Lanes: 1 << uint(k),
		}
	}
	b.Run("packed", func(b *testing.B) {
		ev := r.C.PackedEvaluator()
		got := make([]uint64, 0, len(outs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			got, err = ev.EvalFault(in, outs, faults, got[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(64, "lanes/op")
	})
	b.Run("scalar", func(b *testing.B) {
		sin := make([]bool, len(in))
		for j := range sin {
			sin[j] = in[j]&1 != 0
		}
		sf := []gates.Fault{{Net: faults[0].Net, Model: faults[0].Model}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.C.EvalFault(sin, outs, sf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1, "lanes/op")
	})
}

// --- Static analysis -------------------------------------------------------

// BenchmarkLintAll runs the full rblint analyzer set — rbconstruct,
// determinism (with its CFG taint pass) and lockstate — over every package
// of this module, loader included, so the recorded number is the true cost of the CI
// leg. The committed tree must lint clean; any finding fails the benchmark.
func BenchmarkLintAll(b *testing.B) {
	root, module, err := lint.FindModule(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		l := lint.NewLoader(root, module)
		paths, err := l.Expand([]string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		prog, errs := l.LoadAll(paths)
		if len(errs) > 0 {
			b.Fatal(errs[0])
		}
		diags, timings := lint.ApplyTimed(prog, lint.Analyzers())
		if len(diags) != 0 {
			b.Fatalf("tree does not lint clean: %s", diags[0])
		}
		if i == b.N-1 {
			for _, tm := range timings {
				b.ReportMetric(tm.Millis, tm.Analyzer+"-ms")
			}
			b.ReportMetric(float64(len(prog.Pkgs)), "packages")
		}
	}
}
