package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// ErrBadSpec reports an invalid sampling specification (it maps to HTTP 400
// in rbserve and a usage error in the CLIs).
var ErrBadSpec = errors.New("experiments: bad sample spec")

// SampleSpec configures SMARTS-style systematic sampling: the workload is
// fast-forwarded functionally, and every stride a checkpoint seeds a sample
// cell that runs Warmup+Measure instructions through the detailed simulator,
// measuring only the last Measure of them.
type SampleSpec struct {
	// Samples is the number of cells k (the population is divided into k
	// equal strides with one cell centered in each).
	Samples int
	// Warmup is the detailed warm-up instruction count per cell.
	Warmup int
	// Measure is the measured instruction count per cell.
	Measure int
	// FFWarm bounds functional warming (cache tags + predictor training)
	// during fast-forward to the last FFWarm instructions before each
	// library checkpoint; 0 warms continuously. Continuous warming is the
	// accurate default: limited warming leaves large-footprint working sets
	// cold and biases every cell slow.
	FFWarm int64
}

// Validate checks the spec's internal consistency; errors wrap ErrBadSpec.
func (s SampleSpec) Validate() error {
	switch {
	case s.Samples < 2:
		return fmt.Errorf("%w: samples=%d, need at least 2 for a confidence interval", ErrBadSpec, s.Samples)
	case s.Samples > 1<<16:
		return fmt.Errorf("%w: samples=%d exceeds %d", ErrBadSpec, s.Samples, 1<<16)
	case s.Warmup < 0:
		return fmt.Errorf("%w: warmup=%d is negative", ErrBadSpec, s.Warmup)
	case s.Measure < 1:
		return fmt.Errorf("%w: measure=%d, need at least 1", ErrBadSpec, s.Measure)
	case s.FFWarm < 0:
		return fmt.Errorf("%w: ff-warm=%d is negative", ErrBadSpec, s.FFWarm)
	}
	return nil
}

// cellCooldown is the detailed tail each cell simulates beyond its
// measurement window so the measurement boundary retires under steady fetch
// pressure: without it, every cell would charge a full pipeline drain to its
// last instructions, inflating CPI relative to the full run (which drains
// once). A few hundred instructions covers any window-depth worth of
// in-flight work.
const cellCooldown = 512

// window is one cell's detailed span: warm-up, measurement, cooldown.
func (s SampleSpec) window() int64 { return int64(s.Warmup + s.Measure + cellCooldown) }

// SampledResult aggregates one sampled simulation: the per-cell IPCs and
// their CLT confidence interval, next to the identity of what was sampled.
type SampledResult struct {
	Machine  string
	Workload string
	Spec     SampleSpec

	// TotalInstructions is the workload's full dynamic length; the sampled
	// cells measured MeasuredInstructions of it in detail.
	TotalInstructions    int64
	MeasuredInstructions int64

	// CellIPCs are the per-cell measurement-window IPCs, in stream order.
	CellIPCs []float64
	// MeanCPI is the sampled cycles-per-instruction estimate: the mean of
	// the per-cell CPIs. Because every cell measures the same instruction
	// count, this estimates the full run's cycles/instructions without the
	// bias an IPC average has on phased workloads (a slow phase contributes
	// cycles proportionally, not one equal vote). CI95CPI is its 95%
	// confidence half-width, 1.96 s/√k by the central limit theorem.
	MeanCPI float64
	CI95CPI float64
	// MeanIPC is 1/MeanCPI; CI95 maps CI95CPI into IPC space (delta
	// method: d(1/x) = dx/x²).
	MeanIPC float64
	CI95    float64
}

// RelCI is the confidence half-width relative to the mean (0 when empty).
func (r *SampledResult) RelCI() float64 {
	if r.MeanIPC == 0 {
		return 0
	}
	return r.CI95 / r.MeanIPC
}

// String summarizes the estimate.
func (r *SampledResult) String() string {
	return fmt.Sprintf("%s/%s: sampled IPC %.3f ±%.3f (95%% CI, k=%d, %d/%d insts detailed)",
		r.Machine, r.Workload, r.MeanIPC, r.CI95, len(r.CellIPCs),
		r.MeasuredInstructions, r.TotalInstructions)
}

// ckptLibrary is the fast-forward product: checkpoints captured every stride
// instructions during one continuously-warming functional pass, with their
// content hashes (the rcache key component). The library is independent of
// the sample spec's cell placement — any (samples, warmup, measure) choice
// seeds its cells from the same library by resuming at the nearest prior
// checkpoint and functionally warming the short gap.
type ckptLibrary struct {
	total  int64
	stride int64
	states []*ckpt.State
	// prints are the checkpoints' architectural fingerprints (the cell
	// cache-key component; see ckpt.Fingerprint for why identity hashing
	// suffices).
	prints []string
}

// libStride picks the checkpoint spacing: fine enough that a cell's gap
// replay is cheap, coarse enough that the library stays around a hundred
// entries (each carries a full cache + predictor state copy).
func libStride(maxInsts int64) int64 {
	s := maxInsts / 128
	if s < 16384 {
		s = 16384
	}
	return s
}

// planStarts places one window per stride, centered. It fails (wrapping
// ErrBadSpec) when the windows do not fit the workload.
func planStarts(total int64, spec SampleSpec) ([]int64, error) {
	k := int64(spec.Samples)
	stride := total / k
	if stride <= spec.window() {
		return nil, fmt.Errorf("%w: %d cells of %d instructions exceed the %d-instruction workload (stride %d)",
			ErrBadSpec, k, spec.window(), total, stride)
	}
	starts := make([]int64, k)
	off := (stride - spec.window()) / 2
	for i := range starts {
		starts[i] = int64(i)*stride + off
	}
	return starts, nil
}

// RunSampled estimates a (machine, workload) cell's IPC by systematic
// sampling: a single functional fast-forward pass builds a spec-independent
// checkpoint library, then each cell resumes from the nearest checkpoint,
// warms the gap functionally, and runs its window in detail — fanned out
// over the harness's worker pool and memoized in its cache under (machine ×
// checkpoint hash × window) keys, so re-sampling a warm harness, sampling a
// different spec, or sampling two machines that share cache geometry,
// re-simulates nothing it has already seen.
func (h *Harness) RunSampled(ctx context.Context, cfg machine.Config, w *workload.Workload, spec SampleSpec) (*SampledResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lib, err := h.library(ctx, cfg, w, spec.FFWarm)
	if err != nil {
		return nil, err
	}
	starts, err := planStarts(lib.total, spec)
	if err != nil {
		return nil, err
	}
	cpis, err := h.cellCPIs(ctx, cfg, w, spec, lib, starts)
	if err != nil {
		return nil, err
	}
	return summarize(cfg, w, spec, lib, cpis), nil
}

// library builds (or fetches) the checkpoint library: one functional pass,
// memoized per (cache geometry, workload, FFWarm) — machines differing only
// in width/bypass share it, and so do all sample specs.
func (h *Harness) library(ctx context.Context, cfg machine.Config, w *workload.Workload, ffWarm int64) (*ckptLibrary, error) {
	key := append(make([]byte, 0, 128), "ckptlib|"...)
	key = cfg.Mem.AppendKey(append(append(key, w.Name...), '|'))
	ckKey := string(strconv.AppendInt(append(key, '|'), ffWarm, 10))
	v, _, err := h.cache.Do(ctx, ckKey, func() (any, int64, error) {
		lib, err := buildLibrary(cfg, w, ffWarm)
		if err != nil {
			return nil, 0, err
		}
		return lib, int64(len(lib.states)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ckptLibrary), nil
}

// cellCPIs runs the detailed cells at the given starts and returns their
// CPIs in order. Cached cells are read on the calling goroutine; the misses
// run in parallel when the harness has a pool, and are memoized.
func (h *Harness) cellCPIs(ctx context.Context, cfg machine.Config, w *workload.Workload, spec SampleSpec, lib *ckptLibrary, starts []int64) ([]float64, error) {
	cpis := make([]float64, len(starts))
	keys := make([]string, len(starts))
	var miss []int
	// Window keys are cellKey(&cfg, w.Name, "window/<print>/<ffwarm>/<gap>+
	// <warmup>/<measure>"); only the checkpoint print and the gap vary.
	head := cfg.Name + "|" + w.Name + keyTail(&cfg, "window/")
	ff := "/" + strconv.FormatInt(spec.FFWarm, 10) + "/"
	tail := "+" + strconv.Itoa(spec.Warmup) + "/" + strconv.Itoa(spec.Measure)
	for i, start := range starts {
		j := start / lib.stride
		keys[i] = head + lib.prints[j] + ff + strconv.FormatInt(start-j*lib.stride, 10) + tail
		v, ok, err := cachedHit(h.cache, keys[i], &cfg)
		if err != nil {
			return nil, err
		}
		if ok {
			cpis[i] = v.(float64)
			continue
		}
		miss = append(miss, i)
	}
	err := FanOut(ctx, len(miss), h.submit(), func(m int) error {
		i := miss[m]
		var err error
		cpis[i], err = h.runSampleCell(ctx, cfg, w, spec, lib, keys[i], starts[i], i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cpis, nil
}

// summarize folds per-cell CPIs into the SampledResult statistics.
func summarize(cfg machine.Config, w *workload.Workload, spec SampleSpec, lib *ckptLibrary, cpis []float64) *SampledResult {
	res := &SampledResult{
		Machine:              cfg.Name,
		Workload:             w.Name,
		Spec:                 spec,
		TotalInstructions:    lib.total,
		MeasuredInstructions: int64(spec.Measure) * int64(len(cpis)),
		CellIPCs:             make([]float64, len(cpis)),
	}
	var sum float64
	for i, v := range cpis {
		sum += v
		res.CellIPCs[i] = 1 / v
	}
	k := float64(len(cpis))
	res.MeanCPI = sum / k
	var ss float64
	for _, v := range cpis {
		d := v - res.MeanCPI
		ss += d * d
	}
	res.CI95CPI = 1.96 * math.Sqrt(ss/(k-1)) / math.Sqrt(k)
	res.MeanIPC = 1 / res.MeanCPI
	res.CI95 = res.CI95CPI / (res.MeanCPI * res.MeanCPI)
	return res
}

// runSampleCell runs (or fetches) cell i, cached under key, and returns its
// measurement-window CPI. The cell resumes at the library checkpoint
// preceding start, functionally warms the gap, then runs its window in
// detail.
func (h *Harness) runSampleCell(ctx context.Context, cfg machine.Config, w *workload.Workload, spec SampleSpec, lib *ckptLibrary, key string, start int64, i int) (float64, error) {
	j := start / lib.stride
	gap := start - j*lib.stride
	v, err := CachedCell(ctx, h.cache, key, &cfg, func() (any, error) {
		h.runs.Add(1)
		prog, err := w.Program()
		if err != nil {
			return nil, err
		}
		st := lib.states[j]
		e := emu.Resume(prog, st.Arch)
		hier, err := mem.NewHierarchy(cfg.Mem)
		if err != nil {
			return nil, err
		}
		hier.SetState(st.Hier)
		pred := branch.New()
		pred.SetState(st.Pred)
		warmer := ckpt.NewWarmer(hier, pred)
		var te emu.TraceEntry
		for n := int64(0); n < gap; n++ {
			if err := e.StepInto(&te); err != nil {
				return nil, fmt.Errorf("cell %d of %s at inst %d: %w", i, w.Name, e.InstCount(), err)
			}
			warmer.Observe(&te)
		}
		buf := h.getBuf()
		defer h.putBuf(buf)
		window := spec.window()
		dec, err := buf.Decode(int(window), func(d *core.Decoder) error {
			for n := int64(0); n < window && !e.Halted(); n++ {
				if err := e.StepInto(&te); err != nil {
					return fmt.Errorf("cell %d of %s at inst %d: %w", i, w.Name, e.InstCount(), err)
				}
				d.Add(&te)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		warm := spec.Warmup
		if warm > dec.Len() {
			warm = dec.Len()
		}
		measure := spec.Measure
		if warm+measure > dec.Len() {
			measure = 0 // truncated tail cell: measure to the end, drain included
		}
		hs := hier.State()
		ps := pred.State()
		s, err := core.New(cfg, w.Name, dec, core.Options{
			Backend: h.Backend,
			Warmup:  warm,
			Measure: measure,
			Hier:    &hs,
			Pred:    ps,
			Buffers: buf,
		})
		if err == nil {
			_, err = s.Simulate()
		}
		if err != nil {
			return nil, fmt.Errorf("cell %d of %s on %s: %w", i, w.Name, cfg.Name, err)
		}
		wr := s.Window()
		if wr.MeasuredInstructions == 0 {
			return nil, fmt.Errorf("cell %d of %s on %s: empty measurement window", i, w.Name, cfg.Name)
		}
		return float64(wr.MeasuredCycles) / float64(wr.MeasuredInstructions), nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// buildLibrary is the fast-forward phase: one functional pass over the whole
// workload, warming microarchitectural state continuously (or over the last
// FFWarm instructions before each capture) and checkpointing every stride
// instructions. The pass also discovers the workload's dynamic length, so no
// separate counting run is needed.
func buildLibrary(cfg machine.Config, w *workload.Workload, ffWarm int64) (*ckptLibrary, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	lib := &ckptLibrary{stride: libStride(w.MaxInsts)}
	plan := ckpt.Plan{Workload: w.Name, Max: w.MaxInsts, Every: lib.stride, FFWarm: ffWarm}
	lib.total, err = ckpt.FastForward(prog, ckpt.NewWarmer(hier, branch.New()), plan, func(st *ckpt.State) error {
		lib.states = append(lib.states, st)
		lib.prints = append(lib.prints, st.Fingerprint())
		return nil
	})
	switch {
	case errors.Is(err, ckpt.ErrNoHalt):
		return nil, fmt.Errorf("fast-forward of %s exceeded %d instructions without halting", w.Name, w.MaxInsts)
	case err != nil:
		return nil, fmt.Errorf("fast-forward of %s at inst %d: %w", w.Name, lib.total, err)
	}
	return lib, nil
}
