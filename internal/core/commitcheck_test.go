package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestCommitCheckCatchesSeededDefect seeds one wrong result into a copy of a
// workload's trace — an RB add whose committed value is off by one — and
// requires the commit-time check to end the run with a divergence at that
// instruction, found by the RB datapath recomputation, instead of panicking.
func TestCommitCheckCatchesSeededDefect(t *testing.T) {
	w, _ := workload.ByName("compress")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	seeded := -1
	for i := len(trace) / 2; i < len(trace); i++ {
		if te := &trace[i]; te.Inst.Op == isa.ADDQ && te.HasResult {
			seeded = i
			break
		}
	}
	if seeded < 0 {
		t.Fatal("no ADDQ in the back half of the trace")
	}
	trace[seeded].Result ^= 1
	for _, cfg := range []machine.Config{machine.NewRBFull(8), machine.NewBaseline(8)} {
		_, err := core.Run(cfg, w.Name, trace, core.Options{Oracle: emu.New(prog)})
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("%s: got %v, want a *DivergenceError", cfg.Name, err)
		}
		if div.Seq != trace[seeded].Seq {
			t.Errorf("%s: divergence at instruction %d, defect seeded at %d", cfg.Name, div.Seq, trace[seeded].Seq)
		}
		if !strings.HasPrefix(div.Field, "RB datapath") {
			t.Errorf("%s: diverging field %q, want the RB datapath's", cfg.Name, div.Field)
		}
	}
}
