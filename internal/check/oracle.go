package check

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// The oracle layer: the commit-time check (core.Options.Oracle) — lockstep
// replay of committed instructions through the functional reference and
// the redundant binary datapath recomputation — plus a fault-injection
// self-test that proves the check actually detects a corrupted datapath.

// tierWorkloads is every workload in the full tier and the named ones in
// the quick tier.
func tierWorkloads(opts Options, quick ...string) []*workload.Workload {
	if opts.Full {
		return workload.All()
	}
	var out []*workload.Workload
	for _, name := range quick {
		if w, ok := workload.ByName(name); ok {
			out = append(out, w)
		}
	}
	return out
}

// oracleMachines are the configurations replayed in lockstep.
func oracleMachines(opts Options) []machine.Config {
	if opts.Full {
		return append(machine.All(8), machine.All(4)...)
	}
	return []machine.Config{machine.NewBaseline(8), machine.NewRBFull(8)}
}

// Oracle runs the lockstep layer over a mix of arithmetic-heavy,
// pointer-chasing and branchy kernels (every workload in the full tier).
// Every machine replays the workload's shared timing trace.
func Oracle(opts Options) []Report {
	var out []Report
	for _, w := range tierWorkloads(opts, "compress", "li", "mcf") {
		for _, cfg := range oracleMachines(opts) {
			cfg, w := cfg, w
			out = append(out, run("oracle", fmt.Sprintf("lockstep/%s/%s", cfg.Name, w.Name),
				func() (int64, string, error) {
					prog, err := w.Program()
					if err != nil {
						return 0, "", err
					}
					dec, err := w.Decoded()
					if err != nil {
						return 0, "", err
					}
					r, err := core.Run(cfg, w.Name, dec, core.Options{Oracle: emu.New(prog)})
					if err != nil {
						return 0, "", err
					}
					return r.Instructions, fmt.Sprintf("IPC %.3f", r.IPC()), nil
				}))
		}
	}
	out = append(out, run("oracle", "fault-injection", faultInjectionCheck))
	return out
}

// faultInjectionCheck is the oracle's self-test: it flips one redundant
// binary digit of one in-flight result and requires the oracle to report a
// divergence at exactly that instruction. An oracle that cannot catch an
// injected fault would vacuously pass every lockstep run.
func faultInjectionCheck() (int64, string, error) {
	prog := mixedProgram(64)
	dec, writes, err := emuDecode(prog, 1<<20)
	if err != nil {
		return 0, "", err
	}
	var trials int64
	for _, faultSeq := range []int64{0, 7, int64(len(writes) / 2), int64(len(writes) - 2)} {
		for _, digit := range []int{0, 5, 62} {
			if !writes[faultSeq] {
				continue
			}
			trials++
			div, err := runWithFault(machine.NewRBFull(8), prog, dec, faultSeq, digit)
			if err != nil {
				return trials, "", err
			}
			if div.Seq != faultSeq {
				return trials, "", fmt.Errorf("fault at instruction %d (digit %d) reported at instruction %d",
					faultSeq, digit, div.Seq)
			}
			if div.Dump == "" {
				return trials, "", fmt.Errorf("divergence at instruction %d carries no pipeline dump", faultSeq)
			}
		}
	}
	return trials, fmt.Sprintf("%d injected faults all caught at the faulted instruction", trials), nil
}

// runWithFault runs one lockstep simulation with an injected single-digit
// fault and returns the divergence the oracle must produce.
func runWithFault(cfg machine.Config, prog *isa.Program, dec *core.Decoded, seq int64, digit int) (*core.DivergenceError, error) {
	s, err := core.New(cfg, "fault-injection", dec, core.Options{Oracle: emu.New(prog)})
	if err != nil {
		return nil, err
	}
	s.InjectFault(seq, digit)
	_, err = s.Simulate()
	if err == nil {
		return nil, fmt.Errorf("injected fault at instruction %d digit %d went undetected", seq, digit)
	}
	var div *core.DivergenceError
	if !errors.As(err, &div) {
		return nil, fmt.Errorf("injected fault produced a non-divergence error: %w", err)
	}
	return div, nil
}
