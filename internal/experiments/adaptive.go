package experiments

// Variance-adaptive sampling (the ROADMAP's PR-8 follow-up): instead of a
// fixed cell count k, RunSampledAdaptive grows k in doubling rounds until
// the IPC confidence interval reaches a requested relative half-width.
//
// The trick that makes rounds cheap is cell placement on a nested slot
// grid: fix M (a power of two) slots across the workload, and let the round
// with k cells use every (M/k)-th slot. Each round is then an exact
// systematic sample — evenly spaced cells, the estimator the CLT analysis
// assumes — *and* a superset of every earlier round, so a round at 2k
// simulates only k new cells: the other k come back from the harness's
// sample-cell cache (whose keys are position-derived, never index-derived,
// exactly for this reason). The same reuse applies across calls: a
// coordinator re-running a sweep at a tighter target pays only for the new
// rounds.

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// maxAdaptiveSamples caps the slot grid: adaptive sampling refuses to grow
// past this many cells and reports non-convergence instead.
const maxAdaptiveSamples = 4096

// AdaptiveRound records one round of the adaptive loop.
type AdaptiveRound struct {
	// Samples is the round's cell count k.
	Samples int
	// MeanIPC and RelCI are the round's estimate and its relative 95%
	// confidence half-width (CI95 / MeanIPC).
	MeanIPC float64
	RelCI   float64
}

// AdaptiveResult is the adaptive estimate: the final round's SampledResult
// plus the convergence trail.
type AdaptiveResult struct {
	*SampledResult
	// Target is the requested relative CI half-width.
	Target float64
	// Rounds is the k-doubling trail, in order.
	Rounds []AdaptiveRound
	// Converged reports whether the final round met the target (false when
	// the slot grid ran out first).
	Converged bool
}

// ceilPow2 rounds n up to a power of two (minimum 2).
func ceilPow2(n int) int64 {
	k := int64(2)
	for k < int64(n) {
		k *= 2
	}
	return k
}

// RunSampledAdaptive estimates a cell's IPC to a requested precision:
// starting from spec.Samples cells (rounded up to a power of two), rounds
// double k until the relative 95% CI half-width is at most target or the
// slot grid is exhausted. The spec's Warmup/Measure/FFWarm apply per cell.
func (h *Harness) RunSampledAdaptive(ctx context.Context, cfg machine.Config, w *workload.Workload, spec SampleSpec, target float64) (*AdaptiveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(target) || target <= 0 || target >= 1 {
		return nil, fmt.Errorf("%w: ci-target %v outside (0, 1)", ErrBadSpec, target)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lib, err := h.library(ctx, cfg, w, spec.FFWarm)
	if err != nil {
		return nil, err
	}
	window := spec.window()
	// The slot grid: the largest power of two M <= maxAdaptiveSamples whose
	// slots are wider than a cell window.
	M := int64(2)
	for M*2 <= maxAdaptiveSamples && lib.total/(M*2) > window {
		M *= 2
	}
	slot := lib.total / M
	if slot <= window {
		return nil, fmt.Errorf("%w: 2 cells of %d instructions exceed the %d-instruction workload",
			ErrBadSpec, window, lib.total)
	}
	off := (slot - window) / 2

	k := ceilPow2(spec.Samples)
	if k > M {
		k = M
	}
	out := &AdaptiveResult{Target: target}
	for {
		starts := make([]int64, k)
		step := M / k
		for j := range starts {
			starts[j] = int64(j) * step * slot // every (M/k)-th slot
		}
		for j := range starts {
			starts[j] += off
		}
		cpis, err := h.cellCPIs(ctx, cfg, w, spec, lib, starts)
		if err != nil {
			return nil, err
		}
		roundSpec := spec
		roundSpec.Samples = int(k)
		sr := summarize(cfg, w, roundSpec, lib, cpis)
		out.SampledResult = sr
		out.Rounds = append(out.Rounds, AdaptiveRound{Samples: int(k), MeanIPC: sr.MeanIPC, RelCI: sr.RelCI()})
		if sr.RelCI() <= target {
			out.Converged = true
			return out, nil
		}
		if k == M {
			return out, nil // grid exhausted; best effort
		}
		k *= 2
	}
}

// AdaptiveFigure is the adaptive-vs-full comparison table: each row holds a
// workload's full-run oracle IPC next to the adaptive estimate, its final
// precision, and the k-doubling trail that got there.
type AdaptiveFigure struct {
	Machine string
	Spec    SampleSpec
	Target  float64
	Rows    []AdaptiveFigureRow
}

// AdaptiveFigureRow is one workload's oracle-vs-adaptive pair.
type AdaptiveFigureRow struct {
	Workload string
	FullIPC  float64
	Adaptive *AdaptiveResult
}

// AdaptiveVsFull runs every workload both ways — full-run oracle and
// variance-adaptive estimator — on one machine. Like SampledVsFull it needs
// a *Harness: sampling reaches the checkpoint library beneath the Runner
// surface.
func AdaptiveVsFull(ctx context.Context, h *Harness, cfg machine.Config, wls []*workload.Workload, spec SampleSpec, target float64) (*AdaptiveFigure, error) {
	f := &AdaptiveFigure{Machine: cfg.Name, Spec: spec, Target: target}
	for _, w := range wls {
		full, err := h.RunCell(ctx, cfg, w)
		if err != nil {
			return nil, err
		}
		ad, err := h.RunSampledAdaptive(ctx, cfg, w, spec, target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		f.Rows = append(f.Rows, AdaptiveFigureRow{
			Workload: w.Name,
			FullIPC:  full.IPC(),
			Adaptive: ad,
		})
	}
	return f, nil
}

// Render writes the comparison as a table: oracle IPC, adaptive IPC with
// its achieved relative CI, and the cell-count trail.
func (f *AdaptiveFigure) Render(w io.Writer) error { return write(w, f.Append(nil)) }

// Append appends the comparison table.
func (f *AdaptiveFigure) Append(dst []byte) []byte {
	dst = append(append(dst, "Adaptive sampling vs full simulation, "...), f.Machine...)
	dst = stats.AppendFixed(append(dst, " (target relCI "...), f.Target, 3)
	dst = appendWindows(dst, f.Spec)
	dst = append(dst, "workload        full  adaptive    relci    err%  cells  rounds\n"...)
	for i := range f.Rows {
		r := &f.Rows[i]
		var relErr float64
		if r.FullIPC != 0 {
			relErr = math.Abs(r.Adaptive.MeanIPC-r.FullIPC) / r.FullIPC
		}
		dst = stats.AppendLeft(dst, r.Workload, 10)
		dst = appendField(dst, r.FullIPC, 4, 9)
		dst = appendField(dst, r.Adaptive.MeanIPC, 4, 9)
		dst = appendField(dst, r.Adaptive.RelCI(), 4, 8)
		dst = append(appendField(dst, 100*relErr, 2, 6), '%')
		dst = appendIntField(dst, int64(len(r.Adaptive.CellIPCs)), 6)
		mark := byte(' ')
		if !r.Adaptive.Converged {
			mark = '!' // ran out of slots before the target
		}
		dst = append(dst, mark, ' ')
		for j, rd := range r.Adaptive.Rounds {
			if j > 0 {
				dst = append(dst, '>')
			}
			dst = strconv.AppendInt(dst, int64(rd.Samples), 10)
		}
		dst = append(dst, '\n')
	}
	return append(dst, "(! marks a workload that exhausted the slot grid before the target)\n"...)
}
