package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/machine"
	"repro/internal/workload"
)

// The invariants layer: the paper's four machine models differ only in
// timing, so on any workload they must commit the identical instruction
// stream and obey the IPC partial order the paper's argument predicts —
// removing latency (Ideal) or redundant-format delay (RB-full over
// RB-limited) can only help.

// invariantWidths selects the execution widths checked per tier.
func invariantWidths(opts Options) []int {
	if opts.Full {
		return []int{8, 4}
	}
	return []int{8}
}

// Invariants runs the machine-invariant layer.
func Invariants(opts Options) []Report {
	var out []Report
	for _, w := range tierWorkloads(opts, "compress", "li", "gzip") {
		for _, width := range invariantWidths(opts) {
			w, width := w, width
			out = append(out, run("invariants", fmt.Sprintf("machines/%s/width-%d", w.Name, width),
				func() (int64, string, error) {
					return machineInvariants(w, width)
				}))
		}
	}
	return out
}

// machineInvariants runs every machine model on one workload trace with the
// commit-time check armed and asserts the cross-machine invariants.
func machineInvariants(w *workload.Workload, width int) (int64, string, error) {
	prog, err := w.Program()
	if err != nil {
		return 0, "", err
	}
	dec, err := w.Decoded()
	if err != nil {
		return 0, "", err
	}
	configs := machine.All(width)
	results := make(map[string]*core.Result, len(configs))
	for _, cfg := range configs {
		r, err := core.Run(cfg, w.Name, dec, core.Options{Oracle: emu.New(prog)})
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", cfg.Kind, err)
		}
		if cfg.Kind.IsRB() && r.DatapathChecked == 0 {
			return 0, "", fmt.Errorf("%s ran without the RB datapath check", cfg.Kind)
		}
		results[cfg.Kind.String()] = r
	}

	// Identical committed instruction streams: every machine retires exactly
	// the functional trace, in order, so the committed counts — total,
	// branches, and the Table 1 class histogram — must be equal across
	// machines and equal to the trace length.
	trials := int64(len(configs))
	ref := results["Baseline"]
	if ref.Instructions != int64(dec.Len()) {
		return trials, "", fmt.Errorf("Baseline committed %d instructions, trace has %d", ref.Instructions, dec.Len())
	}
	for name, r := range results {
		if r.Instructions != ref.Instructions {
			return trials, "", fmt.Errorf("%s committed %d instructions, Baseline committed %d", name, r.Instructions, ref.Instructions)
		}
		if r.Branches != ref.Branches {
			return trials, "", fmt.Errorf("%s committed %d branches, Baseline committed %d", name, r.Branches, ref.Branches)
		}
		if r.Table1Counts != ref.Table1Counts {
			return trials, "", fmt.Errorf("%s Table 1 class mix %v differs from Baseline %v", name, r.Table1Counts, ref.Table1Counts)
		}
	}

	// IPC partial order (0.1%% scheduling-noise tolerance): the Ideal machine
	// dominates both realizable designs, and full RB bypass dominates the
	// limited network it strictly extends.
	ipc := func(name string) float64 { return results[name].IPC() }
	for _, ord := range []struct{ hi, lo string }{
		{"Ideal", "RB-full"},
		{"Ideal", "Baseline"},
		{"RB-full", "RB-limited"},
	} {
		if !almostGE(ipc(ord.hi), ipc(ord.lo)) {
			return trials, "", fmt.Errorf("IPC order violated: %s %.4f < %s %.4f",
				ord.hi, ipc(ord.hi), ord.lo, ipc(ord.lo))
		}
	}
	return trials, fmt.Sprintf("4 machines, %d instructions each; IPC Base %.3f RB-lim %.3f RB-full %.3f Ideal %.3f",
		ref.Instructions, ipc("Baseline"), ipc("RB-limited"), ipc("RB-full"), ipc("Ideal")), nil
}
