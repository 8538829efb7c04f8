package experiments

import (
	"context"
	"io"
	"strconv"

	"repro/internal/gates"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure1Data reproduces the argument of the paper's introduction and
// Figure 1: three execution cores with the same per-cycle bandwidth but
// different adder organizations.
//
//   - Configuration A: 1-cycle carry-lookahead adders. The ALU sets the
//     clock, so the whole core runs at the CLA's speed.
//   - Configuration B: the same adders pipelined over 2 cycles, letting the
//     core clock at the (much shorter) per-stage delay — but dependent ADDs
//     can no longer execute back-to-back.
//   - Configuration C: 1-cycle redundant binary adders at the fast clock,
//     with intermediate results forwarded in redundant form.
//
// IPC alone (Figures 9-12) compares B and C to an "Ideal" that gets a
// 1-cycle adder at the fast clock for free. This experiment puts the clock
// back in: cycle times are derived from the measured critical-path depths
// of the gate-level adders in internal/gates (Kogge-Stone vs redundant
// binary), and throughput is IPC x relative frequency.
type Figure1Data struct {
	// ClockRatio is fast-clock / slow-clock = CLA depth / RB adder depth;
	// StaggerRatio is the staggered machine's clock gain (CLA depth /
	// 32-bit-slice depth).
	ClockRatio, StaggerRatio float64
	// DepthCLA, DepthRB and DepthStagger are measured critical-path depths.
	DepthCLA, DepthRB, DepthStagger int
	// IPC and Throughput (IPC x relative clock) per configuration, harmonic
	// means over all 20 benchmarks at width 8.
	IPC, Throughput map[string]float64
	// Order lists the configurations for rendering.
	Order []string
}

// Figure1 runs the three-configuration comparison.
func Figure1(ctx context.Context, r Runner) (*Figure1Data, error) {
	// Measure the adders. The CLA's depth sets configuration A's cycle; the
	// RB adder's depth sets the fast cycle of configurations B and C (the
	// paper's Pentium 4 example: the ALU latency set the core clock).
	ks := gates.KoggeStoneAdder(64)
	rba := gates.RBAdder(64)
	rbOuts := append(append([]gates.Node{}, rba.SumPlus...), rba.SumMinus...)
	depthCLA := ks.C.Depth(ks.Sum...)
	depthRB := rba.C.Depth(rbOuts...)
	ratio := float64(depthCLA) / float64(depthRB)
	// A 64-bit add staggered over two cycles computes a 32-bit slice per
	// stage, so its cycle is set by a 32-bit carry chain — shorter than the
	// full CLA but still wider than the RB slice (the paper's §2 point that
	// staggering "is unlikely to cut the effective add latency in half").
	ks32 := gates.KoggeStoneAdder(32)
	depthStag := ks32.C.Depth(ks32.Sum...)
	stagRatio := float64(depthCLA) / float64(depthStag)

	d := &Figure1Data{
		ClockRatio:   ratio,
		StaggerRatio: stagRatio,
		DepthCLA:     depthCLA,
		DepthRB:      depthRB,
		DepthStagger: depthStag,
		IPC:          map[string]float64{},
		Throughput:   map[string]float64{},
		Order: []string{
			"A: 1-cycle CLA, slow clock",
			"B: 2-cycle pipelined, fast clock",
			"B': 2-cycle staggered, staggered clock",
			"C: 1-cycle RB, fast clock",
		},
	}
	wls := workload.All()
	cfgs := map[string]machine.Config{
		d.Order[0]: machine.NewIdeal(8),     // 1-cycle adds at the slow clock
		d.Order[1]: machine.NewBaseline(8),  // pipelined adds at the fast clock
		d.Order[2]: machine.NewStaggered(8), // staggered adds at the 32-bit-slice clock
		d.Order[3]: machine.NewRBFull(8),    // RB adds at the fast clock
	}
	clock := map[string]float64{
		d.Order[0]: 1,
		d.Order[1]: ratio,
		d.Order[2]: stagRatio,
		d.Order[3]: ratio,
	}
	// Iterate d.Order, not the map: map order is randomized per run and
	// runMatrix simulates in list order.
	var list []machine.Config
	for _, name := range d.Order {
		list = append(list, cfgs[name])
	}
	results, err := r.RunMatrix(ctx, list, wls)
	if err != nil {
		return nil, err
	}
	for name, cfg := range cfgs {
		var ipcs []float64
		for _, w := range wls {
			ipcs = append(ipcs, results[cfg.Name][w.Name].IPC())
		}
		hm := stats.HarmonicMean(ipcs)
		d.IPC[name] = hm
		d.Throughput[name] = hm * clock[name]
	}
	return d, nil
}

// Render writes the comparison.
func (d *Figure1Data) Render(w io.Writer) error { return write(w, d.Append(nil)) }

// Append appends the comparison.
func (d *Figure1Data) Append(dst []byte) []byte {
	dst = append(dst, "Figure 1. Three ALU configurations at their achievable clocks\n\n"...)
	dst = append(dst, "Gate-level adder depths (internal/gates): 64-bit CLA "...)
	dst = strconv.AppendInt(dst, int64(d.DepthCLA), 10)
	dst = append(dst, ", 32-bit stagger slice "...)
	dst = strconv.AppendInt(dst, int64(d.DepthStagger), 10)
	dst = append(dst, ", RB adder "...)
	dst = strconv.AppendInt(dst, int64(d.DepthRB), 10)
	dst = append(dst, "\n=> fast clock is "...)
	dst = append(stats.AppendFixed(dst, d.ClockRatio, 2), "x the slow clock\n\n"...)
	t := &stats.Table{Headers: []string{"configuration", "IPC", "relative clock", "relative throughput"}}
	for _, name := range d.Order {
		clock := 1.0
		switch name {
		case d.Order[1], d.Order[3]:
			clock = d.ClockRatio
		case d.Order[2]:
			clock = d.StaggerRatio
		}
		t.AddRow(name, fixed(d.IPC[name], 3), fixed(clock, 2), fixed(d.Throughput[name], 3))
	}
	return append(t.Append(dst), `
Both fast-clock cores beat the slow 1-cycle-adder core on throughput;
the RB core keeps the pipelined core's clock while recovering most of
its lost back-to-back execution — the paper's motivating argument.
`...)
}
