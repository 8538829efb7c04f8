package experiments

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

// SampledFigure is the sampled-vs-full comparison table: for one machine and
// one sample spec, each row holds a workload's full-run oracle IPC next to
// the sampled estimate and its 95% confidence interval.
type SampledFigure struct {
	Machine string
	Spec    SampleSpec
	Rows    []SampledFigureRow
}

// SampledFigureRow is one workload's oracle-vs-estimate pair.
type SampledFigureRow struct {
	Workload string
	FullIPC  float64
	Sampled  *SampledResult
}

// RelErr is the sampled estimate's relative error against the oracle.
func (r *SampledFigureRow) RelErr() float64 {
	if r.FullIPC == 0 {
		return 0
	}
	return math.Abs(r.Sampled.MeanIPC-r.FullIPC) / r.FullIPC
}

// SampledVsFull runs every workload both ways — the full-run oracle and the
// checkpoint-sampled estimator — on one machine. It needs a *Harness rather
// than a Runner because sampling reaches the checkpoint library and the cell
// cache underneath the Runner surface.
func SampledVsFull(ctx context.Context, h *Harness, cfg machine.Config, wls []*workload.Workload, spec SampleSpec) (*SampledFigure, error) {
	f := &SampledFigure{Machine: cfg.Name, Spec: spec}
	for _, w := range wls {
		full, err := h.RunCell(ctx, cfg, w)
		if err != nil {
			return nil, err
		}
		sampled, err := h.RunSampled(ctx, cfg, w, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		f.Rows = append(f.Rows, SampledFigureRow{
			Workload: w.Name,
			FullIPC:  full.IPC(),
			Sampled:  sampled,
		})
	}
	return f, nil
}

// Render writes the comparison as a table: oracle IPC, sampled IPC with CI,
// relative error, and how much of the stream ran in detail.
func (f *SampledFigure) Render(w io.Writer) error { return write(w, f.Append(nil)) }

// Append appends the comparison table.
func (f *SampledFigure) Append(dst []byte) []byte {
	dst = append(append(dst, "Sampled vs full simulation, "...), f.Machine...)
	dst = strconv.AppendInt(append(dst, " (k="...), int64(f.Spec.Samples), 10)
	dst = appendWindows(dst, f.Spec)
	dst = append(dst, "workload        full   sampled     ci95    err%  detailed  of insts\n"...)
	for i := range f.Rows {
		r := &f.Rows[i]
		dst = stats.AppendLeft(dst, r.Workload, 10)
		dst = appendField(dst, r.FullIPC, 4, 9)
		dst = appendField(dst, r.Sampled.MeanIPC, 4, 9)
		dst = appendField(dst, r.Sampled.CI95, 4, 8)
		dst = appendField(dst, 100*r.RelErr(), 2, 6)
		mark := byte(' ')
		if math.Abs(r.Sampled.MeanIPC-r.FullIPC) > r.Sampled.CI95 {
			mark = '!' // oracle outside the reported CI
		}
		dst = appendIntField(append(dst, mark), r.Sampled.MeasuredInstructions, 9)
		dst = appendIntField(dst, r.Sampled.TotalInstructions, 9)
		dst = append(dst, '\n')
	}
	return append(dst, "(! marks an oracle outside the sampled 95% CI)\n"...)
}

// appendWindows appends the sampled figures' title tail, ", warmup=<w>,
// measure=<m>)\n".
func appendWindows(dst []byte, spec SampleSpec) []byte {
	dst = strconv.AppendInt(append(dst, ", warmup="...), int64(spec.Warmup), 10)
	dst = strconv.AppendInt(append(dst, ", measure="...), int64(spec.Measure), 10)
	return append(dst, ")\n"...)
}

// appendField appends a separating space and v as %<width>.<prec>f.
func appendField(dst []byte, v float64, prec, width int) []byte {
	dst = append(dst, ' ')
	start := len(dst)
	return stats.RightAlign(stats.AppendFixed(dst, v, prec), start, width)
}

// appendIntField appends a separating space and n as %<width>d.
func appendIntField(dst []byte, n int64, width int) []byte {
	dst = append(dst, ' ')
	start := len(dst)
	return stats.RightAlign(strconv.AppendInt(dst, n, 10), start, width)
}
