package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestDatapathVerificationFullMatrix runs every workload on both redundant
// binary machines with the commit-time check armed: every RB-class result is
// recomputed through the redundant binary datapath (operands in forwarded
// representations, intermediates never converted) and compared with the
// functional golden model at retire. Any divergence fails the run with a
// *core.DivergenceError.
func TestDatapathVerificationFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full datapath matrix is slow; skipped with -short")
	}
	for _, mk := range []func(int) machine.Config{machine.NewRBFull, machine.NewRBLimited} {
		cfg := mk(8)
		cfg.Name += "-dpcheck"
		for _, w := range workload.All() {
			w := w
			t.Run(cfg.Name+"/"+w.Name, func(t *testing.T) {
				prog, err := w.Program()
				if err != nil {
					t.Fatal(err)
				}
				trace, err := w.Trace()
				if err != nil {
					t.Fatal(err)
				}
				r, err := core.Run(cfg, w.Name, trace, core.Options{Oracle: emu.New(prog)})
				if err != nil {
					t.Fatal(err)
				}
				if r.DatapathChecked == 0 {
					t.Error("no RB results verified")
				}
				if float64(r.DatapathChecked) < 0.05*float64(r.Instructions) {
					t.Errorf("only %d of %d instructions verified; workload exercises too little RB datapath",
						r.DatapathChecked, r.Instructions)
				}
			})
		}
	}
}

// TestAllMachinesAllWorkloadsComplete is the broad completion matrix: every
// paper machine (plus the Figure-14 variants) finishes every workload with
// full retirement and a positive IPC bounded by the machine width.
func TestAllMachinesAllWorkloadsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full completion matrix is slow; skipped with -short")
	}
	var cfgs []machine.Config
	for _, width := range []int{4, 8} {
		cfgs = append(cfgs, machine.All(width)...)
		for _, bp := range Figure14Configs() {
			cfgs = append(cfgs, machine.NewIdealLimited(width, bp))
		}
	}
	results, err := Default().RunMatrix(context.Background(), cfgs, workload.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		for _, w := range workload.All() {
			r := results[cfg.Name][w.Name]
			trace, _ := w.Trace()
			if r.Instructions != int64(len(trace)) {
				t.Errorf("%s/%s: retired %d of %d", cfg.Name, w.Name, r.Instructions, len(trace))
			}
			if r.IPC() <= 0 || r.IPC() > float64(cfg.Width) {
				t.Errorf("%s/%s: IPC %.3f out of range", cfg.Name, w.Name, r.IPC())
			}
		}
	}
}
