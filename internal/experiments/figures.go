package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/bypass"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MachineOrder is the paper's bar order in Figures 9-12.
var MachineOrder = []string{"Baseline", "RB-limited", "RB-full", "Ideal"}

// IPCFigure is one of Figures 9-12: per-benchmark IPC for the four machines
// at one width, plus harmonic means.
type IPCFigure struct {
	ID        string
	Title     string
	Width     int
	Suite     string
	Workloads []string
	// IPC[machineKind][workload]; machine kinds are the MachineOrder names.
	IPC map[string]map[string]float64
	// HMean[machineKind] is the harmonic mean IPC over the suite.
	HMean map[string]float64
}

// ipcFigure runs one IPC figure.
func ipcFigure(ctx context.Context, r Runner, id, title string, width int, suite string) (*IPCFigure, error) {
	wls, err := workload.Suite(suite)
	if err != nil {
		return nil, err
	}
	results, err := r.RunMatrix(ctx, machine.All(width), wls)
	if err != nil {
		return nil, err
	}
	f := &IPCFigure{
		ID: id, Title: title, Width: width, Suite: suite,
		Workloads: workloadNames(wls),
		IPC:       make(map[string]map[string]float64),
		HMean:     make(map[string]float64),
	}
	for _, cfg := range machine.All(width) {
		kind := cfg.Kind.String()
		f.IPC[kind] = make(map[string]float64, len(wls))
		var ipcs []float64
		for _, w := range wls {
			r := results[cfg.Name][w.Name]
			f.IPC[kind][w.Name] = r.IPC()
			ipcs = append(ipcs, r.IPC())
		}
		f.HMean[kind] = stats.HarmonicMean(ipcs)
	}
	return f, nil
}

// IPCComparison is the generic width/suite-parameterized IPC comparison
// behind the figures; rbserve's /v1/experiment/ipc endpoint exposes it so
// clients can request cells the paper does not plot.
func IPCComparison(ctx context.Context, r Runner, width int, suite string) (*IPCFigure, error) {
	title := fmt.Sprintf("IPC of %d-wide machines, %s", width, suite)
	return ipcFigure(ctx, r, fmt.Sprintf("IPC %d-wide %s", width, suite), title, width, suite)
}

// Figure9 is the 8-wide SPECint2000 IPC comparison.
func Figure9(ctx context.Context, r Runner) (*IPCFigure, error) {
	return ipcFigure(ctx, r, "Figure 9", "IPC of 8-wide machines, SPECint2000", 8, "SPECint2000")
}

// Figure10 is the 8-wide SPECint95 IPC comparison.
func Figure10(ctx context.Context, r Runner) (*IPCFigure, error) {
	return ipcFigure(ctx, r, "Figure 10", "IPC of 8-wide machines, SPECint95", 8, "SPECint95")
}

// Figure11 is the 4-wide SPECint2000 IPC comparison.
func Figure11(ctx context.Context, r Runner) (*IPCFigure, error) {
	return ipcFigure(ctx, r, "Figure 11", "IPC of 4-wide machines, SPECint2000", 4, "SPECint2000")
}

// Figure12 is the 4-wide SPECint95 IPC comparison.
func Figure12(ctx context.Context, r Runner) (*IPCFigure, error) {
	return ipcFigure(ctx, r, "Figure 12", "IPC of 4-wide machines, SPECint95", 4, "SPECint95")
}

// Render writes the figure as a table with ASCII bars.
func (f *IPCFigure) Render(w io.Writer) error { return write(w, f.Append(nil)) }

// Append appends the figure's text: the IPC table, then one ASCII bar per
// (workload, machine) scaled to the largest IPC.
func (f *IPCFigure) Append(dst []byte) []byte {
	dst = append(dst, f.ID...)
	dst = append(dst, ". "...)
	dst = append(dst, f.Title...)
	dst = append(dst, "\n\n"...)
	var max float64
	for _, m := range MachineOrder {
		for _, wl := range f.Workloads {
			if v := f.IPC[m][wl]; v > max {
				max = v
			}
		}
	}
	t := &stats.Table{Headers: append([]string{"benchmark"}, MachineOrder...)}
	t.Rows = make([][]string, 0, len(f.Workloads)+1)
	for _, wl := range f.Workloads {
		row := append(make([]string, 0, 1+len(MachineOrder)), wl)
		for _, m := range MachineOrder {
			row = append(row, fixed(f.IPC[m][wl], 3))
		}
		t.AddRow(row...)
	}
	hm := append(make([]string, 0, 1+len(MachineOrder)), "harmonic mean")
	for _, m := range MachineOrder {
		hm = append(hm, fixed(f.HMean[m], 3))
	}
	t.AddRow(hm...)
	dst = append(t.Append(dst), '\n')
	for _, wl := range f.Workloads {
		for _, m := range MachineOrder {
			v := f.IPC[m][wl]
			dst = append(stats.AppendLeft(dst, wl, 10), ' ')
			dst = append(stats.AppendLeft(dst, m, 10), ' ')
			start := len(dst)
			dst = stats.RightAlign(stats.AppendFixed(dst, v, 3), start, 6)
			dst = append(stats.AppendBar(append(dst, " |"...), v, max, 40), '\n')
		}
	}
	return dst
}

// Figure13Data is the distribution of potentially critical bypass cases
// (last-arriving bypassed source operands) on the 8-wide RB-full machine
// over SPECint2000.
type Figure13Data struct {
	Workloads []string
	// FracBypassed[w]: fraction of dynamic instructions with at least one
	// bypassed source (the number atop each bar in the paper).
	FracBypassed map[string]float64
	// CaseFrac[w][c]: distribution of the four cases among last-arriving
	// bypassed sources.
	CaseFrac map[string][core.NumBypassCases]float64
	// FracConversion[w]: fraction of the bypasses requiring RB->TC
	// conversion (the number at the bottom of each bar).
	FracConversion map[string]float64
}

// Figure13 runs the bypass-case measurement.
func Figure13(ctx context.Context, r Runner) (*Figure13Data, error) {
	wls := workload.SPECint2000()
	cfg := machine.NewRBFull(8)
	d := &Figure13Data{
		Workloads:      workloadNames(wls),
		FracBypassed:   map[string]float64{},
		CaseFrac:       map[string][core.NumBypassCases]float64{},
		FracConversion: map[string]float64{},
	}
	results, err := r.RunMatrix(ctx, []machine.Config{cfg}, wls)
	if err != nil {
		return nil, err
	}
	for _, w := range wls {
		r := results[cfg.Name][w.Name]
		var total int64
		for _, c := range r.LastArriving {
			total += c
		}
		var frac [core.NumBypassCases]float64
		if total > 0 {
			for c, v := range r.LastArriving {
				frac[c] = float64(v) / float64(total)
			}
			d.FracConversion[w.Name] = float64(r.ConversionDelayed) / float64(total)
		}
		d.CaseFrac[w.Name] = frac
		d.FracBypassed[w.Name] = float64(r.BypassedInstructions) / float64(r.Instructions)
	}
	return d, nil
}

// Render writes Figure 13 as a table.
func (d *Figure13Data) Render(w io.Writer) error { return write(w, d.Append(nil)) }

// Append appends Figure 13's table.
func (d *Figure13Data) Append(dst []byte) []byte {
	dst = append(dst, "Figure 13. Potentially critical bypass cases (8-wide RB-full, SPECint2000)\n\n"...)
	t := &stats.Table{Headers: []string{"benchmark", "bypassed", "TC->TC", "TC->RB", "RB->RB", "RB->TC", "conv"}}
	t.Rows = make([][]string, 0, len(d.Workloads))
	for _, wl := range d.Workloads {
		cf := d.CaseFrac[wl]
		t.AddRow(wl,
			pct(d.FracBypassed[wl]),
			pct(cf[core.TCtoTC]),
			pct(cf[core.TCtoRB]),
			pct(cf[core.RBtoRB]),
			pct(cf[core.RBtoTC]),
			pct(d.FracConversion[wl]))
	}
	return t.Append(dst)
}

// Figure14Configs are the bypass configurations of Figure 14, in the
// paper's order.
func Figure14Configs() []bypass.Config {
	return []bypass.Config{
		bypass.Full(),
		bypass.Full().Without(1),
		bypass.Full().Without(2),
		bypass.Full().Without(3),
		bypass.Full().Without(1, 2),
		bypass.Full().Without(2, 3),
	}
}

// Figure14Data is the harmonic-mean IPC of the Ideal machine with limited
// bypass networks over all 20 benchmarks, at both widths.
type Figure14Data struct {
	Configs []string
	// HMean[width][config]
	HMean map[int]map[string]float64
	// SrcLevel1 / SrcOther / SrcNone are the §5.2 source-locality fractions
	// measured on the full-bypass Ideal machines (aggregated over all
	// benchmarks, per width).
	SrcLevel1, SrcOther, SrcNone map[int]float64
}

// Figure14 runs the limited-bypass study.
func Figure14(ctx context.Context, r Runner) (*Figure14Data, error) {
	wls := workload.All()
	d := &Figure14Data{
		HMean:     map[int]map[string]float64{},
		SrcLevel1: map[int]float64{}, SrcOther: map[int]float64{}, SrcNone: map[int]float64{},
	}
	for _, bp := range Figure14Configs() {
		d.Configs = append(d.Configs, bp.String())
	}
	for _, width := range []int{4, 8} {
		var cfgs []machine.Config
		for _, bp := range Figure14Configs() {
			cfgs = append(cfgs, machine.NewIdealLimited(width, bp))
		}
		results, err := r.RunMatrix(ctx, cfgs, wls)
		if err != nil {
			return nil, err
		}
		d.HMean[width] = map[string]float64{}
		for i, cfg := range cfgs {
			var ipcs []float64
			for _, w := range wls {
				ipcs = append(ipcs, results[cfg.Name][w.Name].IPC())
			}
			d.HMean[width][d.Configs[i]] = stats.HarmonicMean(ipcs)
		}
		// Source locality on the full network.
		var l1, other, none, insts int64
		for _, w := range wls {
			r := results[cfgs[0].Name][w.Name]
			l1 += r.SrcLevel1
			other += r.SrcOtherLevel
			none += r.SrcNoBypass
			insts += r.Instructions
		}
		d.SrcLevel1[width] = float64(l1) / float64(insts)
		d.SrcOther[width] = float64(other) / float64(insts)
		d.SrcNone[width] = float64(none) / float64(insts)
	}
	return d, nil
}

// Render writes Figure 14.
func (d *Figure14Data) Render(w io.Writer) error { return write(w, d.Append(nil)) }

// Append appends Figure 14's table and its source-locality lines.
func (d *Figure14Data) Append(dst []byte) []byte {
	dst = append(dst, "Figure 14. Harmonic-mean IPC with limited bypass networks (all 20 benchmarks)\n\n"...)
	t := &stats.Table{Headers: []string{"machine", "4-wide", "8-wide"}}
	t.Rows = make([][]string, 0, len(d.Configs))
	for _, c := range d.Configs {
		t.AddRow(c, fixed(d.HMean[4][c], 3), fixed(d.HMean[8][c], 3))
	}
	dst = t.Append(dst)
	dst = append(dst, "\nSource locality on the full network (Ideal): \n"...)
	for _, width := range []int{4, 8} {
		dst = append(strconv.AppendInt(append(dst, "  "...), int64(width), 10), "-wide: "...)
		dst = append(stats.AppendFixed(dst, 100*d.SrcNone[width], 0), "% no bypassed source, "...)
		dst = append(stats.AppendFixed(dst, 100*d.SrcLevel1[width], 0), "% first-level, "...)
		dst = append(stats.AppendFixed(dst, 100*d.SrcOther[width], 0), "% other level\n"...)
	}
	return dst
}

// Table1Data is the measured dynamic instruction-class mix (Table 1's
// rightmost column) aggregated over all 20 benchmarks, next to the paper's
// reported fractions.
type Table1Data struct {
	RowFrac   [isa.NumTable1Rows]float64
	PaperFrac [isa.NumTable1Rows]float64
}

// PaperTable1Fractions are the dynamic fractions the paper reports.
var PaperTable1Fractions = [isa.NumTable1Rows]float64{
	isa.Row1ArithRBRB:  0.180,
	isa.Row2CMOVSign:   0.004,
	isa.Row3CMOVZero:   0.005,
	isa.Row4Memory:     0.366,
	isa.Row5CMPEQ:      0.005,
	isa.Row6Compare:    0.039,
	isa.Row7CondBranch: 0.144,
	isa.Row8Other:      0.257,
}

// Table1 measures the dynamic mix, from each workload's cached timing
// trace.
func Table1() (*Table1Data, error) {
	d := &Table1Data{PaperFrac: PaperTable1Fractions}
	var counts [isa.NumTable1Rows]int64
	var total int64
	for _, w := range workload.All() {
		dec, err := w.Decoded()
		if err != nil {
			return nil, err
		}
		for r, c := range dec.Table1() {
			counts[r] += c
		}
		total += int64(dec.Len())
	}
	for r, c := range counts {
		d.RowFrac[r] = float64(c) / float64(total)
	}
	return d, nil
}

// Render writes Table 1.
func (d *Table1Data) Render(w io.Writer) error { return write(w, d.Append(nil)) }

// Append appends Table 1.
func (d *Table1Data) Append(dst []byte) []byte {
	dst = append(dst, "Table 1. Instruction classifications: dynamic fraction of the instruction stream\n\n"...)
	t := &stats.Table{Headers: []string{"class", "in", "out", "measured", "paper"}}
	format := func(r isa.Table1Row) (string, string) {
		switch r {
		case isa.Row7CondBranch:
			return "RB", "-"
		case isa.Row4Memory, isa.Row5CMPEQ, isa.Row6Compare:
			return "RB", "TC"
		case isa.Row8Other:
			return "TC", "TC"
		default:
			return "RB", "RB"
		}
	}
	for r := isa.Table1Row(0); r < isa.NumTable1Rows; r++ {
		in, out := format(r)
		t.AddRow(r.String(), in, out, pct(d.RowFrac[r]), pct(d.PaperFrac[r]))
	}
	return t.Append(dst)
}

// Summary computes the §5.2 headline comparisons from Figures 9-12.
type Summary struct {
	// Rows are human-readable claim lines with paper and measured values.
	Rows []SummaryRow
}

// SummaryRow pairs a paper claim with the measured value.
type SummaryRow struct {
	Claim    string
	Paper    string
	Measured string
	// Value is the measured ratio (for tests).
	Value float64
}

// ComputeSummary derives the headline percentages.
func ComputeSummary(ctx context.Context, r Runner) (*Summary, error) {
	figs := map[string]*IPCFigure{}
	for _, f := range []struct {
		name string
		fn   func(context.Context, Runner) (*IPCFigure, error)
	}{
		{"f9", Figure9}, {"f10", Figure10}, {"f11", Figure11}, {"f12", Figure12},
	} {
		fig, err := f.fn(ctx, r)
		if err != nil {
			return nil, err
		}
		figs[f.name] = fig
	}
	s := &Summary{}
	add := func(claim, paper string, value float64) {
		s.Rows = append(s.Rows, SummaryRow{
			Claim: claim, Paper: paper,
			Measured: gainPct(value), Value: value,
		})
	}
	rel := func(f *IPCFigure, a, b string) float64 { return f.HMean[a] / f.HMean[b] }

	add("8-wide RB-full vs Baseline, SPECint2000", "+7%", rel(figs["f9"], "RB-full", "Baseline"))
	add("8-wide RB-full vs Ideal, SPECint2000", "-1.1%", rel(figs["f9"], "RB-full", "Ideal"))
	add("8-wide RB-full vs Baseline, SPECint95", "+9%", rel(figs["f10"], "RB-full", "Baseline"))
	add("8-wide RB-full vs Ideal, SPECint95", "-2%", rel(figs["f10"], "RB-full", "Ideal"))
	add("4-wide RB-full vs Baseline, SPECint2000", "+5%", rel(figs["f11"], "RB-full", "Baseline"))
	add("4-wide RB-full vs Ideal, SPECint2000", "-0.5%", rel(figs["f11"], "RB-full", "Ideal"))
	add("4-wide RB-full vs Baseline, SPECint95", "+6%", rel(figs["f12"], "RB-full", "Baseline"))
	add("4-wide RB-full vs Ideal, SPECint95", "-1.3%", rel(figs["f12"], "RB-full", "Ideal"))
	add("8-wide Ideal vs Baseline, SPECint2000", "+8%", rel(figs["f9"], "Ideal", "Baseline"))
	add("8-wide Ideal vs Baseline, SPECint95", "+11%", rel(figs["f10"], "Ideal", "Baseline"))

	// RB-limited vs RB-full across both widths (paper: within 2% at 8-wide,
	// 2.3% at 4-wide).
	lim8 := 2 / (1/rel(figs["f9"], "RB-limited", "RB-full") + 1/rel(figs["f10"], "RB-limited", "RB-full"))
	lim4 := 2 / (1/rel(figs["f11"], "RB-limited", "RB-full") + 1/rel(figs["f12"], "RB-limited", "RB-full"))
	add("8-wide RB-limited vs RB-full (both suites)", "-2%", lim8)
	add("4-wide RB-limited vs RB-full (both suites)", "-2.3%", lim4)
	return s, nil
}

// Render writes the summary table.
func (s *Summary) Render(w io.Writer) error { return write(w, s.Append(nil)) }

// Append appends the summary table.
func (s *Summary) Append(dst []byte) []byte {
	dst = append(dst, "Headline comparisons (paper §1/§5.2 vs this reproduction)\n\n"...)
	t := &stats.Table{Headers: []string{"claim", "paper", "measured"}}
	t.Rows = make([][]string, 0, len(s.Rows))
	for _, r := range s.Rows {
		t.AddRow(r.Claim, r.Paper, r.Measured)
	}
	return t.Append(dst)
}
