package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bypass"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// loopProgram builds a program that executes `body` (dependent-chain text,
// one instruction per line) inside a counted loop, keeping the instruction
// cache warm so timing measurements isolate the execution core.
func loopProgram(t *testing.T, setup string, iters int, body string) *isa.Program {
	t.Helper()
	src := fmt.Sprintf(`
        %s
        li r29, %d
loop:
%s
        subq r29, #1, r29
        bgt r29, loop
        halt
`, setup, iters, body)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func repeatBody(line string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("        ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// runProgram streams p's committed stream (bounded by maxInsts) into a
// timing trace and simulates it under opt, whose run modes, if any, step
// emulators of p.
func runProgram(cfg machine.Config, workload string, p *isa.Program, maxInsts int64, opt Options) (*Result, error) {
	var d Decoder
	if _, err := emu.New(p).Run(maxInsts, func(te emu.TraceEntry) { d.Add(&te) }); err != nil {
		return nil, err
	}
	dec, err := d.Decoded()
	if err != nil {
		return nil, err
	}
	return Run(cfg, workload, dec, opt)
}

// decodeTrace is the timing trace of a full trace.
func decodeTrace(t testing.TB, trace []emu.TraceEntry) *Decoded {
	t.Helper()
	var d Decoder
	for i := range trace {
		d.Add(&trace[i])
	}
	dec, err := d.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func mustRun(t *testing.T, cfg machine.Config, p *isa.Program) *Result {
	t.Helper()
	r, err := runProgram(cfg, "test", p, 5_000_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustRunChecked is mustRun with the commit-time check armed.
func mustRunChecked(t *testing.T, cfg machine.Config, p *isa.Program) *Result {
	t.Helper()
	r, err := runProgram(cfg, "test", p, 5_000_000, Options{Oracle: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEmptyTrace(t *testing.T) {
	r, err := Run(machine.NewIdeal(8), "empty", decodeTrace(t, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Errorf("empty trace: %+v", r)
	}
}

// Per-link cost of a dependent chain on the 4-wide (single-cluster)
// machines. The loop body is a 20-link dependent add chain; loop control
// overlaps with it, so cycles/links converges to the chain's per-link cost.
func chainPerLink(t *testing.T, cfg machine.Config, bodyLine string, linksPerIter int) float64 {
	const iters = 400
	p := loopProgram(t, "li r1, 0", iters, repeatBody(bodyLine, linksPerIter))
	r := mustRun(t, cfg, p)
	return float64(r.Cycles) / float64(iters*linksPerIter)
}

func TestDependentAddChainLatencies(t *testing.T) {
	// Baseline's 2-cycle pipelined adders cannot execute dependent adds
	// back-to-back; Ideal and the RB machines can (the paper's central
	// premise, Figure 1).
	want := map[string]float64{"Baseline": 2, "RB-limited": 1, "RB-full": 1, "Ideal": 1}
	for _, cfg := range machine.All(4) {
		per := chainPerLink(t, cfg, "addq r1, #1, r1", 20)
		w := want[cfg.Kind.String()]
		if per < w-0.05 || per > w+0.15 {
			t.Errorf("%s: %.3f cycles per dependent add, want ~%.0f", cfg.Name, per, w)
		}
	}
}

func TestConversionPenaltyOnAddAndChain(t *testing.T) {
	// Alternating add -> and: the AND requires 2's complement, so RB
	// machines pay the 2-cycle conversion on every add->and edge
	// (Table 3: arithmetic 1 (3)); the and->add edge is 1 everywhere.
	body := "addq r1, #3, r1\n and r1, #255, r1"
	want := map[string]float64{"Ideal": 2, "Baseline": 3, "RB-full": 4, "RB-limited": 4}
	for _, cfg := range machine.All(4) {
		const iters, pairs = 400, 10
		p := loopProgram(t, "li r1, 0", iters, strings.Repeat("        "+body+"\n", pairs))
		r := mustRun(t, cfg, p)
		per := float64(r.Cycles) / float64(iters*pairs)
		w := want[cfg.Kind.String()]
		if per < w-0.1 || per > w+0.2 {
			t.Errorf("%s: %.3f cycles/pair, want ~%.0f", cfg.Name, per, w)
		}
	}
}

func TestRBLimitedHolePenalty(t *testing.T) {
	// A join whose last operand is produced 1 cycle before it could issue:
	// on RB-full the join issues at the later producer's offset 1 (with the
	// earlier producer at offset 2, served by the RB register file); on
	// RB-limited, offset 2 falls in the hole and the join waits for the
	// 2's-complement register file at offset 4.
	body := `        addq r3, #1, r1
        addq r1, #2, r2
        addq r2, r1, r3
`
	const iters = 400
	p := loopProgram(t, "li r1, 0\nli r2, 0\nli r3, 0", iters, strings.Repeat(body, 5))
	full := mustRun(t, machine.NewRBFull(4), p)
	limited := mustRun(t, machine.NewRBLimited(4), p)
	perFull := float64(full.Cycles) / float64(iters*5)
	perLim := float64(limited.Cycles) / float64(iters*5)
	// RB-full: r1 at T+1, r2 at T+2, join at T+3 -> 3 cycles/round.
	if perFull < 2.9 || perFull > 3.2 {
		t.Errorf("RB-full %.3f cycles/round, want ~3", perFull)
	}
	// RB-limited: at the earliest join cycle (T+2) r1 sits in its hole; by
	// the time r1 reaches the register file (offset 4, cycle T+4) r2 is in
	// *its* hole (offset 3), so the join issues at T+5 and the next round
	// starts at T+6: 6 cycles/round — holes compound.
	if perLim < 5.9 || perLim > 6.3 {
		t.Errorf("RB-limited %.3f cycles/round, want ~6", perLim)
	}
}

func TestIdealLimitedBypassOrdering(t *testing.T) {
	// Figure 14 mechanics on a back-to-back chain: removing level 1 forces
	// offset 2; removing levels 1 and 2 forces offset 3; levels 2 and 3 are
	// never used by a back-to-back chain.
	per := func(bp bypass.Config) float64 {
		return chainPerLink(t, machine.NewIdealLimited(4, bp), "addq r1, #1, r1", 20)
	}
	full := per(bypass.Full())
	no1 := per(bypass.Full().Without(1))
	no2 := per(bypass.Full().Without(2))
	no3 := per(bypass.Full().Without(3))
	no12 := per(bypass.Full().Without(1, 2))
	if full < 0.95 || full > 1.1 {
		t.Errorf("full per-link %.3f, want ~1", full)
	}
	if no1 < 1.95 || no1 > 2.1 {
		t.Errorf("No-1 per-link %.3f, want ~2", no1)
	}
	if no12 < 2.95 || no12 > 3.1 {
		t.Errorf("No-1,2 per-link %.3f, want ~3", no12)
	}
	if no2 != full || no3 != full {
		t.Errorf("levels 2/3 unused by back-to-back chain: full=%.3f no2=%.3f no3=%.3f", full, no2, no3)
	}
}

func TestLoadUseLatency(t *testing.T) {
	// Pointer chasing on a cache-resident self-loop: load-to-load latency is
	// 1 (SAM address generation) + 2 (dcache) = 3 on every machine.
	p, err := asm.Assemble(`
        .data 0x1000
        .quad 0x1000
        li  r1, 0x1000
        li  r2, 2000
loop:   ldq r1, 0(r1)
        subq r2, #1, r2
        bgt r2, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range machine.All(4) {
		r := mustRun(t, cfg, p)
		per := float64(r.Cycles) / 2000
		if per < 2.9 || per > 3.2 {
			t.Errorf("%s: %.3f cycles per pointer-chase, want ~3", cfg.Name, per)
		}
	}
}

func TestMispredictionPenalty(t *testing.T) {
	biased := loopProgram(t, "li r9, 0", 10000, "        addq r9, #1, r9\n")
	rBiased := mustRun(t, machine.NewIdeal(8), biased)
	if rate := rBiased.MispredictRate(); rate > 0.01 {
		t.Errorf("biased loop mispredict rate %.3f", rate)
	}
	// xorshift-driven branch: effectively random direction.
	unpred, err := asm.Assemble(`
        li r1, 10000
        li r9, 88172645
loop:   sll r9, #13, r3
        xor r9, r3, r9
        srl r9, #7, r3
        xor r9, r3, r9
        sll r9, #17, r3
        xor r9, r3, r9
        srl r9, #33, r4
        blbs r4, odd
        addq r8, #1, r8
        br r31, next
odd:    addq r7, #1, r7
next:   subq r1, #1, r1
        bgt r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	rUnpred := mustRun(t, machine.NewIdeal(8), unpred)
	if rate := rUnpred.MispredictRate(); rate < 0.10 {
		t.Errorf("unpredictable branch mispredict rate %.3f, want >= 0.10", rate)
	}
	if rUnpred.IPC() >= rBiased.IPC() {
		t.Errorf("mispredictions did not hurt IPC: %.3f vs %.3f", rUnpred.IPC(), rBiased.IPC())
	}
}

func TestIPCNeverExceedsWidth(t *testing.T) {
	var b strings.Builder
	for r := 0; r < 8; r++ {
		fmt.Fprintf(&b, "        addq r%d, #1, r%d\n", r, r)
	}
	p := loopProgram(t, "", 400, strings.Repeat(b.String(), 2))
	for _, width := range []int{4, 8} {
		r := mustRun(t, machine.NewIdeal(width), p)
		if r.IPC() > float64(width) {
			t.Errorf("width %d: IPC %.3f exceeds width", width, r.IPC())
		}
		if r.IPC() < 1.5 {
			t.Errorf("width %d: IPC %.3f suspiciously low for independent stream", width, r.IPC())
		}
	}
}

func TestWiderMachineNotSlower(t *testing.T) {
	var b strings.Builder
	for r := 0; r < 6; r++ {
		fmt.Fprintf(&b, "        addq r%d, #1, r%d\n", r, r)
		fmt.Fprintf(&b, "        xor r%d, r%d, r1%d\n", r, r, r%2)
	}
	p := loopProgram(t, "", 300, b.String())
	r4 := mustRun(t, machine.NewIdeal(4), p)
	r8 := mustRun(t, machine.NewIdeal(8), p)
	if r8.Cycles > r4.Cycles+r4.Cycles/20 {
		t.Errorf("8-wide (%d cycles) slower than 4-wide (%d)", r8.Cycles, r4.Cycles)
	}
}

func TestMachineOrderingOnMixedWorkload(t *testing.T) {
	// Mixed arithmetic/memory/branch loop: Ideal >= RB-full and both RB
	// machines >= ... the full SPEC-style comparison happens in
	// internal/experiments; here we check Ideal >= RB-full >= RB-limited and
	// Ideal > Baseline.
	p := loopProgram(t, "li r10, 0x2000\nli r2, 1", 2000, `
        ldq  r3, 0(r10)
        addq r3, r2, r3
        s4addq r2, r3, r4
        stq  r4, 0(r10)
        and  r4, #15, r5
        addq r5, r2, r2
        cmplt r2, #100000, r6
`)
	ipc := map[string]float64{}
	for _, cfg := range machine.All(8) {
		r := mustRun(t, cfg, p)
		ipc[cfg.Kind.String()] = r.IPC()
	}
	slack := 1.005
	if !(ipc["Ideal"]*slack >= ipc["RB-full"] && ipc["RB-full"]*slack >= ipc["RB-limited"]) {
		t.Errorf("ordering violated: %+v", ipc)
	}
	if ipc["Ideal"] <= ipc["Baseline"] {
		t.Errorf("Ideal not faster than Baseline: %+v", ipc)
	}
}

func TestBypassCaseAccounting(t *testing.T) {
	// add -> add chains produce RB->RB last-arriving bypasses.
	p := loopProgram(t, "li r1, 0", 100, repeatBody("addq r1, #1, r1", 10))
	r := mustRun(t, machine.NewRBFull(8), p)
	if r.LastArriving[RBtoRB] < 900 {
		t.Errorf("RB->RB count %d, want ~1000 (stats: %v)", r.LastArriving[RBtoRB], r.LastArriving)
	}
	if r.BypassedInstructions < 900 {
		t.Errorf("bypassed instructions %d", r.BypassedInstructions)
	}

	// add -> and chains: the add->and edge is RB->TC (needs conversion);
	// the and->add edge is TC->RB.
	p2 := loopProgram(t, "li r1, 0", 100, strings.Repeat("        addq r1, #3, r1\n        and r1, #255, r1\n", 5))
	r2 := mustRun(t, machine.NewRBFull(8), p2)
	if r2.LastArriving[RBtoTC] < 400 {
		t.Errorf("RB->TC count %d (stats: %v)", r2.LastArriving[RBtoTC], r2.LastArriving)
	}
	if r2.LastArriving[TCtoRB] < 400 {
		t.Errorf("TC->RB count %d (stats: %v)", r2.LastArriving[TCtoRB], r2.LastArriving)
	}
	if r2.ConversionDelayed != r2.LastArriving[RBtoTC] {
		t.Errorf("ConversionDelayed %d != RB->TC %d", r2.ConversionDelayed, r2.LastArriving[RBtoTC])
	}
}

func TestSourceLocalityBreakdown(t *testing.T) {
	p := loopProgram(t, "li r1, 0", 100, repeatBody("addq r1, #1, r1", 10))
	r := mustRun(t, machine.NewIdeal(8), p)
	// A back-to-back chain takes nearly everything from the first-level
	// bypass.
	if float64(r.SrcLevel1) < 0.8*float64(r.Instructions) {
		t.Errorf("first-level sources %d of %d (%d other, %d none)",
			r.SrcLevel1, r.Instructions, r.SrcOtherLevel, r.SrcNoBypass)
	}
	total := r.SrcLevel1 + r.SrcOtherLevel + r.SrcNoBypass
	if total != r.Instructions {
		t.Errorf("locality breakdown %d != instructions %d", total, r.Instructions)
	}
}

func TestTable1CountsMatchTrace(t *testing.T) {
	p := loopProgram(t, "", 10, `
        addq r2, #1, r2
        and r2, #3, r3
        ldq r4, 0x100(r31)
        stq r3, 0x108(r31)
        cmpeq r2, #5, r5
        cmovlt r5, r2, r6
`)
	r := mustRun(t, machine.NewIdeal(8), p)
	var sum int64
	for _, c := range r.Table1Counts {
		sum += c
	}
	if sum != r.Instructions {
		t.Errorf("Table 1 counts sum %d != %d", sum, r.Instructions)
	}
	if r.Table1Counts[isa.Row4Memory] != 20 { // 10 loads + 10 stores
		t.Errorf("memory row count %d, want 20", r.Table1Counts[isa.Row4Memory])
	}
	if r.Table1Counts[isa.Row7CondBranch] != 10 {
		t.Errorf("branch row count %d, want 10", r.Table1Counts[isa.Row7CondBranch])
	}
}

func TestDatapathCheckRunsClean(t *testing.T) {
	// A value-heavy loop covering every RB-executable op; the RB datapath
	// must agree with the golden trace at every retire.
	p := loopProgram(t, "li r1, 12345\nli r2, -6789", 500, `
        addq r1, r2, r3
        subq r3, #17, r4
        s4addq r4, r1, r5
        s8subq r5, r2, r6
        sll  r6, #3, r7
        mull r3, r4, r8
        cmplt r8, r5, r10
        cmoveq r10, r6, r11
        cmovgt r8, r7, r12
        lda  r13, 40(r5)
        addl r13, r4, r14
        cttz r14, r15
        addq r1, r14, r1
        addq r2, r15, r2
`)
	for _, cfg := range []machine.Config{machine.NewRBFull(8), machine.NewRBLimited(4)} {
		r := mustRunChecked(t, cfg, p)
		if r.DatapathChecked < 5000 {
			t.Errorf("%s: only %d datapath checks", cfg.Name, r.DatapathChecked)
		}
	}
}

func TestDatapathCheckDoesNotChangeTiming(t *testing.T) {
	p := loopProgram(t, "li r1, 7", 300, "        addq r1, r1, r1\n")
	cfg := machine.NewRBFull(8)
	base := mustRun(t, cfg, p)
	checked := mustRunChecked(t, cfg, p)
	if base.Cycles != checked.Cycles {
		t.Errorf("commit-time check changed timing: %d vs %d", base.Cycles, checked.Cycles)
	}
}

func TestWindowLimitsILP(t *testing.T) {
	// Strided loads that miss all the way to memory, each followed by
	// independent work: a big window overlaps several misses, a tiny one
	// cannot.
	p := loopProgram(t, "li r20, 0x100000", 150,
		"        ldq r1, 0(r20)\n        lda r20, 320(r20)\n"+repeatBody("addq r2, #1, r2", 20))
	big := mustRun(t, machine.NewIdeal(8), p)
	small := machine.NewIdeal(8)
	small.WindowSize = 16
	small.SchedulerSize = 4
	smallRes := mustRun(t, small, p)
	if float64(smallRes.Cycles) < 1.3*float64(big.Cycles) {
		t.Errorf("shrinking the window did not reduce overlap: %d vs %d", smallRes.Cycles, big.Cycles)
	}
}

func TestTraceDrivenDeterminism(t *testing.T) {
	p := loopProgram(t, "li r1, 3", 200, "        addq r1, r1, r1\n")
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(machine.NewRBLimited(8), "det", decodeTrace(t, trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(machine.NewRBLimited(8), "det", decodeTrace(t, trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IPC() != b.IPC() {
		t.Errorf("nondeterministic simulation: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestRetireOrderAndCounts(t *testing.T) {
	p := loopProgram(t, "li r1, 1", 50, "        addq r1, r1, r1\n        xor r1, #5, r2\n")
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(machine.NewBaseline(4), "retire", decodeTrace(t, trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != int64(len(trace)) {
		t.Errorf("retired %d of %d", r.Instructions, len(trace))
	}
	if r.Cycles < int64(len(trace))/8 {
		t.Errorf("cycle count %d impossibly low", r.Cycles)
	}
}

func TestClassSchedulersOption(t *testing.T) {
	// §4.3 first technique: TC-input instructions in separate schedulers.
	// The run must complete with identical architectural work and an IPC in
	// the same ballpark as unified steering (class partitioning can win or
	// lose a little depending on the class balance).
	p := loopProgram(t, "li r10, 0x2000\nli r2, 1", 1500, `
        ldq  r3, 0(r10)
        addq r3, r2, r3
        and  r3, #255, r4
        xor  r4, r2, r5
        stq  r3, 0(r10)
        addq r2, #1, r2
`)
	for _, width := range []int{4, 8} {
		base := machine.NewRBFull(width)
		split := machine.NewRBFull(width)
		split.ClassSchedulers = true
		split.Name = split.Name + "-classsched"
		rBase := mustRun(t, base, p)
		rSplit := mustRun(t, split, p)
		if rSplit.Instructions != rBase.Instructions {
			t.Errorf("width %d: instruction counts differ: %d vs %d",
				width, rSplit.Instructions, rBase.Instructions)
		}
		lo, hi := 0.5*rBase.IPC(), 1.5*rBase.IPC()
		if rSplit.IPC() < lo || rSplit.IPC() > hi {
			t.Errorf("width %d: class-scheduler IPC %.3f far from unified %.3f",
				width, rSplit.IPC(), rBase.IPC())
		}
	}
}

func TestClassSchedulersDatapathStillVerifies(t *testing.T) {
	p := loopProgram(t, "li r1, 99", 300, `
        addq r1, #7, r2
        and  r2, #63, r3
        s4addq r2, r3, r1
`)
	cfg := machine.NewRBLimited(8)
	cfg.ClassSchedulers = true
	r := mustRunChecked(t, cfg, p)
	if r.DatapathChecked == 0 {
		t.Error("no datapath checks ran")
	}
}

func TestDependenceSteeringReducesCrossClusterDelay(t *testing.T) {
	// A serial dependent chain on the clustered 8-wide machine: round-robin
	// steering crosses the cluster boundary regularly (+1 cycle per
	// crossing); dependence steering keeps the chain in one cluster.
	p := loopProgram(t, "li r1, 0", 400, repeatBody("addq r1, #1, r1", 20))
	base := machine.NewIdeal(8)
	steered := machine.NewIdeal(8)
	steered.DependenceSteering = true
	steered.Name += "-depsteer"
	rBase := mustRun(t, base, p)
	rSteer := mustRun(t, steered, p)
	if rSteer.Cycles >= rBase.Cycles {
		t.Errorf("dependence steering did not help a serial chain: %d vs %d cycles",
			rSteer.Cycles, rBase.Cycles)
	}
	// The steered chain should run at ~1 cycle/link, like the unclustered
	// machine.
	per := float64(rSteer.Cycles) / float64(400*20)
	if per > 1.15 {
		t.Errorf("steered per-link cost %.3f, want ~1", per)
	}
}

func TestDependenceSteeringCompletesOnMixedCode(t *testing.T) {
	p := loopProgram(t, "li r10, 0x3000\nli r2, 5", 800, `
        ldq  r3, 0(r10)
        addq r3, r2, r4
        and  r4, #127, r5
        stq  r5, 8(r10)
        s4addq r2, r4, r2
`)
	for _, k := range machine.All(8) {
		cfg := k
		cfg.DependenceSteering = true
		cfg.Name += "-depsteer"
		r := mustRun(t, cfg, p)
		if r.Instructions == 0 || r.IPC() <= 0 {
			t.Errorf("%s: bad result %+v", cfg.Name, r)
		}
	}
}

func TestAvgOccupancy(t *testing.T) {
	// A window-saturating workload must report occupancy near the window
	// size; a trivial one far below it.
	saturating := loopProgram(t, "li r1, 1", 500, repeatBody("mulq r1, #3, r1", 4))
	r := mustRun(t, machine.NewIdeal(8), saturating)
	if r.AvgOccupancy() < 32 {
		t.Errorf("multiply-chain occupancy %.1f suspiciously low", r.AvgOccupancy())
	}
	if r.AvgOccupancy() > float64(machine.NewIdeal(8).WindowSize) {
		t.Errorf("occupancy %.1f exceeds the window", r.AvgOccupancy())
	}
}

func mustTrace(t *testing.T, p *isa.Program) []emu.TraceEntry {
	t.Helper()
	trace, err := emu.Trace(p, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestStoreToLoadOrdering(t *testing.T) {
	// A loop carried through memory: the load reads the quadword the store
	// just wrote, so each iteration must wait for the store; the independent
	// variant loads a different line and its carried chain is one add.
	dep := loopProgram(t, "li r10, 0x4000\nli r1, 1", 1000, `
        stq  r1, 0(r10)
        ldq  r2, 0(r10)
        addq r2, #1, r1
`)
	indep := loopProgram(t, "li r10, 0x4000\nli r1, 1", 1000, `
        stq  r1, 0(r10)
        ldq  r2, 64(r10)
        addq r2, #1, r1
`)
	cfg := machine.NewIdeal(4)
	rDep := mustRun(t, cfg, dep)
	rInd := mustRun(t, cfg, indep)
	// The dependent load serializes behind the 10-cycle multiply feeding the
	// store; the independent load does not.
	if rDep.Cycles <= rInd.Cycles+int64(1000) {
		t.Errorf("aliasing load not ordered behind the store: %d vs %d cycles",
			rDep.Cycles, rInd.Cycles)
	}
	// With the option off, both run alike.
	cfg.MemoryDependence = false
	rOff := mustRun(t, cfg, dep)
	if rOff.Cycles >= rDep.Cycles {
		t.Errorf("disabling memory dependence did not speed up the aliasing loop: %d vs %d",
			rOff.Cycles, rDep.Cycles)
	}
}

func TestStoreToLoadForwardingLatency(t *testing.T) {
	// Forwarding is free: the dependent load issues the cycle after the
	// store executes, so the store->load->use chain on Ideal costs
	// store(1) + load(1+dcache 2) + use: ~4 cycles per round plus the chain
	// feeding the store.
	p := loopProgram(t, "li r10, 0x4000\nclr r1", 600, `
        addq r1, #1, r1
        stq  r1, 0(r10)
        ldq  r1, 0(r10)
`)
	r := mustRun(t, machine.NewIdeal(4), p)
	per := float64(r.Cycles) / 600
	// Chain: addq(1) -> store issues at +1 -> load issues cycle after the
	// store -> data 3 cycles later -> next addq: ~6 cycles/round.
	if per < 5.0 || per > 7.0 {
		t.Errorf("store-forwarded round %.2f cycles, want ~6", per)
	}
}

func TestStageCaptureInPackage(t *testing.T) {
	p := loopProgram(t, "li r1, 1", 50, "        addq r1, r1, r1\n")
	trace := mustTrace(t, p)
	stages := make([]StageRecord, len(trace))
	r, err := Run(machine.NewIdeal(4), "stages", decodeTrace(t, trace), Options{Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != len(trace) {
		t.Fatalf("%d stage records for %d entries", len(stages), len(trace))
	}
	for i, st := range stages {
		if st.Fetch < 0 || st.Dispatch < st.Fetch || st.Issue < st.Dispatch ||
			st.Done < st.Issue || st.Retire <= st.Done {
			t.Fatalf("entry %d stage ordering violated: %+v", i, st)
		}
	}
	if r.Instructions != int64(len(trace)) {
		t.Errorf("retired %d", r.Instructions)
	}
}

func TestIndirectBranchPrediction(t *testing.T) {
	// Calls and returns exercise the RAS path; a data-driven indirect jump
	// exercises the BTB path.
	p, err := asm.Assemble(`
        .entry main
fn:     addq r1, #1, r1
        ret  r31, (r26)
t0:     addq r2, #1, r2
        br   r31, back
t1:     addq r3, #1, r3
        br   r31, back
main:   li   r29, 2000
        lea  r11, t0
        lea  r12, t1
loop:   bsr  r26, fn
        blbs r1, use1
        mov  r11, r27
        br   r31, go
use1:   mov  r12, r27
go:     jmp  r25, (r27)
back:   subq r29, #1, r29
        bgt  r29, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, machine.NewIdeal(8), p)
	if r.Branches == 0 {
		t.Fatal("no indirect branches predicted")
	}
	// Returns are RAS-predicted (near-perfect); the alternating indirect
	// target defeats the BTB roughly half the time, so the overall rate sits
	// strictly between 0 and 50%.
	rate := r.MispredictRate()
	if rate <= 0.0 || rate >= 0.6 {
		t.Errorf("indirect mispredict rate %.3f out of expected band", rate)
	}
}

func TestResultStrings(t *testing.T) {
	p := loopProgram(t, "li r1, 1", 20, "        addq r1, r1, r1\n")
	r := mustRun(t, machine.NewIdeal(4), p)
	s := r.String()
	if !strings.Contains(s, "IPC") || !strings.Contains(s, "Ideal-4") {
		t.Errorf("Result.String: %q", s)
	}
	for c := BypassCase(0); c < NumBypassCases; c++ {
		if c.String() == "?" {
			t.Errorf("case %d has no name", c)
		}
	}
	if BypassCase(99).String() != "?" {
		t.Error("invalid case not marked")
	}
	var empty Result
	if empty.IPC() != 0 || empty.MispredictRate() != 0 || empty.AvgOccupancy() != 0 {
		t.Error("empty result rates not zero")
	}
}

func TestStaggeredAddChain(t *testing.T) {
	// §2: staggered adders execute dependent adds back-to-back (the low half
	// forwards from stage 1), but a logical consumer of the full result
	// waits both stages.
	perAdd := chainPerLink(t, machine.NewStaggered(4), "addq r1, #1, r1", 20)
	if perAdd < 0.95 || perAdd > 1.15 {
		t.Errorf("staggered dependent add %.3f cycles/link, want ~1", perAdd)
	}
	p := loopProgram(t, "li r1, 0", 400, strings.Repeat("        addq r1, #3, r1\n        and r1, #255, r1\n", 10))
	r := mustRun(t, machine.NewStaggered(4), p)
	per := float64(r.Cycles) / float64(400*10)
	// add(1) + wait for the full result (+1) -> and(1) -> add: ~3 per pair,
	// same as Baseline but via a different mechanism.
	if per < 2.9 || per > 3.2 {
		t.Errorf("staggered add->and %.3f cycles/pair, want ~3", per)
	}
}

func TestMovePreservesRBTiming(t *testing.T) {
	// §3.6 MOV exception: addq -> mov -> addq chains stay in the redundant
	// domain (1 cycle per link on RB machines); addq -> xor-with-self (a
	// clear is NOT a move) would convert.
	p := loopProgram(t, "li r1, 0", 400, strings.Repeat(
		"        addq r1, #1, r2\n        mov  r2, r1\n", 10))
	r := mustRun(t, machine.NewRBFull(4), p)
	per := float64(r.Cycles) / float64(400*10)
	// add(1) + mov(1), both staying redundant: ~2 cycles per pair.
	if per < 1.9 || per > 2.2 {
		t.Errorf("add->mov->add chain %.3f cycles/pair, want ~2 (MOV stays in RB)", per)
	}
	// Sanity: the datapath check must verify MOVs of redundant values.
	r2 := mustRunChecked(t, machine.NewRBFull(4), p)
	if r2.DatapathChecked < r.Instructions/2 {
		t.Errorf("too few datapath checks: %d", r2.DatapathChecked)
	}
}
