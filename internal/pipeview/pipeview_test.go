package pipeview

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// figure4 is the paper's Figure-4 dependency graph: SLL feeds AND (needs
// 2's complement), ADD (stays redundant), and SUB (together with ADD).
const figure4 = `
        li   r1, 7
        li   r2, 3
        sll  r1, #2, r3
        and  r3, #255, r4
        addq r3, r2, r5
        subq r5, r3, r6
        halt
`

func stagesFor(t *testing.T, cfg machine.Config) ([]emu.TraceEntry, []core.StageRecord) {
	t.Helper()
	p, err := asm.Assemble(figure4)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := emu.Trace(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]core.StageRecord, len(trace))
	if _, err := core.Run(cfg, "fig4", trace, core.Options{Stages: stages}); err != nil {
		t.Fatal(err)
	}
	return trace, stages
}

// findIssue returns the issue cycle of the first trace entry with the op.
func findIssue(t *testing.T, trace []emu.TraceEntry, stages []core.StageRecord, op isa.Op) int64 {
	t.Helper()
	for i, te := range trace {
		if te.Inst.Op == op {
			if stages[i].Issue < 0 {
				t.Fatalf("%v never issued", op)
			}
			return stages[i].Issue
		}
	}
	t.Fatalf("%v not in trace", op)
	return 0
}

// The Figure-5 schedule (full bypass, RB machine): the ADD takes the SLL's
// redundant result from the first-level bypass one cycle after the shift
// completes; the AND waits for the 2-cycle conversion; the SUB gets the
// ADD's result at offset 1 and the SLL's at offset 2.
func TestFigure5Schedule(t *testing.T) {
	cfg := machine.NewRBFull(4)
	trace, stages := stagesFor(t, cfg)
	sll := findIssue(t, trace, stages, isa.SLL)
	and := findIssue(t, trace, stages, isa.AND)
	add := findIssue(t, trace, stages, isa.ADDQ)
	sub := findIssue(t, trace, stages, isa.SUBQ)

	sllLat := cfg.Latency(isa.LatShiftLeft)
	sllDone := sll + sllLat.Exec - 1
	if add != sllDone+1 {
		t.Errorf("ADD issued at %d, want %d (back-to-back after the shift)", add, sllDone+1)
	}
	if and != sllDone+sllLat.TCExtra+1 {
		t.Errorf("AND issued at %d, want %d (after the %d-cycle conversion)",
			and, sllDone+sllLat.TCExtra+1, sllLat.TCExtra)
	}
	if sub != add+1 {
		t.Errorf("SUB issued at %d, want %d (ADD at offset 1, SLL at offset 2)", sub, add+1)
	}
}

// The Figure-7 schedule (limited bypass): the AND still converts; the SUB
// can no longer catch the SLL at offset 2 (the hole) and must wait for the
// register file.
func TestFigure7Schedule(t *testing.T) {
	full := machine.NewRBFull(4)
	lim := machine.NewRBLimited(4)
	traceF, stagesF := stagesFor(t, full)
	traceL, stagesL := stagesFor(t, lim)

	subFull := findIssue(t, traceF, stagesF, isa.SUBQ)
	subLim := findIssue(t, traceL, stagesL, isa.SUBQ)
	addFull := findIssue(t, traceF, stagesF, isa.ADDQ)
	addLim := findIssue(t, traceL, stagesL, isa.ADDQ)
	if addLim != addFull {
		t.Errorf("ADD timing changed under the limited network: %d vs %d", addLim, addFull)
	}
	if subLim <= subFull {
		t.Errorf("SUB not delayed by the availability hole: %d vs %d", subLim, subFull)
	}
	// Under the §5 model the holes compound: when the SLL's register-file
	// copy appears (offset 4 from its production), the ADD's result is in
	// *its* hole, so the SUB waits for the ADD's register-file copy at the
	// ADD's offset 4 — one cycle later (the same compounding the paper's
	// Figure 7 shows, where the SUB reads both operands from the register
	// file).
	sll := findIssue(t, traceL, stagesL, isa.SLL)
	sllDone := sll + lim.Latency(isa.LatShiftLeft).Exec - 1
	addDone := addLim // 1-cycle ADD
	if subLim != addDone+4 {
		t.Errorf("SUB issued at %d under the limited network, want %d (ADD's register-file copy at offset 4)",
			subLim, addDone+4)
	}
	if subLim != sllDone+5 {
		t.Errorf("SUB issued at %d, want %d relative to the SLL", subLim, sllDone+5)
	}
}

func TestRenderProducesDiagram(t *testing.T) {
	cfg := machine.NewRBFull(4)
	trace, stages := stagesFor(t, cfg)
	var b strings.Builder
	if err := Render(&b, cfg, trace, stages, 0, len(trace)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"RF", "EX", "C1", "C2", "WB", "sll", "subq"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	// Baseline machine: no conversion stages.
	base := machine.NewBaseline(4)
	traceB, stagesB := stagesFor(t, base)
	b.Reset()
	if err := Render(&b, base, traceB, stagesB, 0, len(traceB)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "C1") {
		t.Error("baseline diagram shows conversion stages")
	}
}

func TestRenderErrors(t *testing.T) {
	cfg := machine.NewRBFull(4)
	trace, stages := stagesFor(t, cfg)
	var b strings.Builder
	if err := Render(&b, cfg, trace, stages, 3, 2); err == nil {
		t.Error("bad range accepted")
	}
	if err := Render(&b, cfg, trace, stages[:1], 0, len(trace)); err == nil {
		t.Error("mismatched stages accepted")
	}
}

func TestRenderShowsMemoryStage(t *testing.T) {
	p, err := asm.Assemble(`
        li  r1, 0x100000
        ldq r2, 0(r1)      ; cold miss: MM cells beyond the nominal latency
        addq r2, #1, r3
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := emu.Trace(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewIdeal(4)
	stages := make([]core.StageRecord, len(trace))
	if _, err := core.Run(cfg, "mm", trace, core.Options{Stages: stages}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Render(&b, cfg, trace, stages, 0, len(trace)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "MM") {
		t.Errorf("diagram missing memory stage:\n%s", b.String())
	}
}
