package core_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/workload"
)

// requireDivergence runs dec under the commit-time check on both an RB and
// the Baseline machine, after prepare (if any), and requires each run to
// end with a *DivergenceError naming field at dynamic instruction seq.
func requireDivergence(t *testing.T, prog *isa.Program, dec *core.Decoded, prepare func(*core.Simulator), field string, seq int64) {
	t.Helper()
	for _, cfg := range []machine.Config{machine.NewRBFull(8), machine.NewBaseline(8)} {
		s, err := core.New(cfg, "seeded", dec, core.Options{Oracle: emu.New(prog)})
		if err != nil {
			t.Fatal(err)
		}
		if prepare != nil {
			prepare(s)
		}
		_, err = s.Simulate()
		var div *core.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("%s: got %v, want a *DivergenceError", cfg.Name, err)
		}
		if div.Field != field || div.Seq != seq {
			t.Errorf("%s: divergence in %q at instruction %d, want %q at the seeded instruction %d",
				cfg.Name, div.Field, div.Seq, field, seq)
		}
	}
}

// TestCommitCheckCatchesSeededDefect seeds one defect into each input the
// commit-time check compares with the reference — a copy of a workload's
// timing trace with a wrong PC, next PC, branch outcome or effective
// address, and a wrong operand in the RB datapath — and requires the check
// to end the run with a divergence naming that field at the seeded
// instruction instead of panicking or passing.
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
	dec, err := w.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	// first finds the first back-half entry satisfying ok, and its
	// memory-op ordinal.
	first := func(ok func(te *emu.TraceEntry) bool) (idx, memOrd int) {
		t.Helper()
		for i := range trace {
			te := &trace[i]
			if i >= len(trace)/2 && ok(te) {
				return i, memOrd
			}
			if te.Inst.Class().IsMemory() {
				memOrd++
			}
		}
		t.Fatal("no such instruction in the back half of the trace")
		return 0, 0
	}

	t.Run("pc", func(t *testing.T) {
		seeded := core.Seeded(dec, func(pc []int32, _ []bool, _ []uint64) { pc[0]++ })
		requireDivergence(t, prog, seeded, nil, "pc", trace[0].Seq)
	})
	t.Run("next pc", func(t *testing.T) {
		i, _ := first(func(te *emu.TraceEntry) bool { return te.Inst.Op == isa.ADDQ })
		seeded := core.Seeded(dec, func(pc []int32, _ []bool, _ []uint64) { pc[i+1] += 2 })
		requireDivergence(t, prog, seeded, nil, "next pc", trace[i].Seq)
	})
	t.Run("branch outcome", func(t *testing.T) {
		i, _ := first(func(te *emu.TraceEntry) bool { return te.Inst.Class().IsCondBranch })
		seeded := core.Seeded(dec, func(_ []int32, taken []bool, _ []uint64) { taken[i] = !taken[i] })
		requireDivergence(t, prog, seeded, nil, "branch outcome", trace[i].Seq)
	})
	t.Run("effective address", func(t *testing.T) {
		i, m := first(func(te *emu.TraceEntry) bool { return te.Inst.Class().IsLoad })
		seeded := core.Seeded(dec, func(_ []int32, _ []bool, ea []uint64) { ea[m] += 8 })
		requireDivergence(t, prog, seeded, nil, "effective address", trace[i].Seq)
	})

	// The RB datapath: r2 is first read, in RB form, by the add after the
	// loop; a wrong RB form seeded into it must surface there.
	t.Run("RB datapath", func(t *testing.T) {
		p, err := asm.Assemble(`
        li   r1, 40
loop:   addq r3, r1, r3
        subq r1, #1, r1
        bgt  r1, loop
        addq r2, r3, r4
        halt
`)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := emu.Trace(p, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decode(trace)
		if err != nil {
			t.Fatal(err)
		}
		seq := trace[len(trace)-2].Seq
		requireDivergence(t, p, dec, func(s *core.Simulator) { s.SeedRBOperand(2, 5) }, "RB datapath result", seq)
	})
}
