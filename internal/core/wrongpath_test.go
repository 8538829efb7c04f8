package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// unpredictableProgram has a data-driven 50/50 branch inside a loop, so the
// wrong path is exercised constantly.
func unpredictableProgram(t *testing.T) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(`
        li r1, 4000
        li r9, 88172645
loop:   sll r9, #13, r3
        xor r9, r3, r9
        srl r9, #7, r3
        xor r9, r3, r9
        sll r9, #17, r3
        xor r9, r3, r9
        srl r9, #33, r4
        blbs r4, odd
        addq r8, #3, r8
        xor  r8, r4, r8
        br r31, next
odd:    subq r7, #1, r7
        s4addq r7, r8, r7
next:   subq r1, #1, r1
        bgt r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWrongPathIdenticalWhenNoMispredicts(t *testing.T) {
	// A perfectly predictable loop: wrong-path modeling must change nothing.
	p := loopProgram(t, "li r1, 0", 3000, "        addq r1, #1, r1\n")
	base := machine.NewIdeal(8)
	wp := machine.NewIdeal(8)
	wp.Name += "-wp"
	rBase, err := runProgram(base, "b", p, 1_000_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rWP, err := runProgram(wp, "w", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	// Loop warmup mispredicts a handful of times, so allow a small delta.
	if diff := rWP.Cycles - rBase.Cycles; diff < -50 || diff > 50 {
		t.Errorf("wrong-path mode changed a predictable loop: %d vs %d cycles", rWP.Cycles, rBase.Cycles)
	}
}

func TestWrongPathConsumesResources(t *testing.T) {
	p := unpredictableProgram(t)
	base := machine.NewRBFull(8)
	wp := machine.NewRBFull(8)
	wp.Name += "-wp"
	rBase, err := runProgram(base, "b", p, 1_000_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rWP, err := runProgram(wp, "w", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	if rWP.WrongPathIssued == 0 {
		t.Fatal("no wrong-path instructions issued despite heavy misprediction")
	}
	if rBase.WrongPathIssued != 0 {
		t.Error("base mode reported wrong-path issues")
	}
	if rWP.Instructions != rBase.Instructions {
		t.Errorf("retired counts differ: %d vs %d", rWP.Instructions, rBase.Instructions)
	}
	// Wrong-path work occupies the window while the branch resolves, so
	// measured occupancy must rise.
	if rWP.AvgOccupancy() <= rBase.AvgOccupancy() {
		t.Errorf("occupancy did not rise under wrong-path fetch: %.1f vs %.1f",
			rWP.AvgOccupancy(), rBase.AvgOccupancy())
	}
	// The committed-path timing may shift slightly (wrong-path work shares
	// the I-cache and select ports) but must stay in the same regime.
	ratio := float64(rWP.Cycles) / float64(rBase.Cycles)
	if ratio < 0.9 || ratio > 1.3 {
		t.Errorf("wrong-path cycles %.2fx base; expected a modest effect", ratio)
	}
}

func TestWrongPathDeterminism(t *testing.T) {
	p := unpredictableProgram(t)
	cfg := machine.NewRBLimited(8)
	a, err := runProgram(cfg, "a", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runProgram(cfg, "b", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.WrongPathIssued != b.WrongPathIssued {
		t.Errorf("nondeterministic wrong-path runs: %d/%d vs %d/%d cycles/wp",
			a.Cycles, a.WrongPathIssued, b.Cycles, b.WrongPathIssued)
	}
}

func TestWrongPathLoadsPolluteCache(t *testing.T) {
	// An unpredictable branch guards a load to a side region: with wrong-path
	// modeling the not-taken path's load accesses the cache even when the
	// branch was actually taken.
	p, err := asm.Assemble(`
        li r1, 3000
        li r9, 88172645
        li r10, 0x4000
        li r11, 0x80000
loop:   sll r9, #13, r3
        xor r9, r3, r9
        srl r9, #7, r3
        xor r9, r3, r9
        sll r9, #17, r3
        xor r9, r3, r9
        srl r9, #23, r4
        and r4, #4095, r4
        blbs r4, skip
        addq r11, r4, r5
        ldq r6, 0(r5)        ; only executed on the not-taken path
        addq r20, r6, r20
skip:   subq r1, #1, r1
        bgt r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	r, err := runProgram(cfg, "pollute", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	if r.WrongPathLoads == 0 {
		t.Error("no wrong-path loads accessed the cache")
	}
	if r.WrongPathIssued < r.WrongPathLoads {
		t.Errorf("issued %d < loads %d", r.WrongPathIssued, r.WrongPathLoads)
	}
}

// TestWrongPathShadowStateMatchesEmulator: the fetch-order emulator seeds
// every wrong path and the wrong paths run on forks of it, so after a run
// whose wrong paths store to memory it has stepped exactly the committed
// stream and holds the architectural emulator's final registers and memory
// — no wrong-path store reached it — and a second run is identical.
func TestWrongPathShadowStateMatchesEmulator(t *testing.T) {
	p, err := asm.Assemble(`
        li r1, 3000
        li r9, 88172645
        li r10, 0x4000
loop:   sll r9, #13, r3
        xor r9, r3, r9
        srl r9, #7, r3
        xor r9, r3, r9
        sll r9, #17, r3
        xor r9, r3, r9
        srl r9, #23, r4
        blbs r4, skip
        stq r4, 0(r10)       ; only on the not-taken path
        ldq r5, 8(r10)
        addq r5, r4, r5
        stq r5, 8(r10)
skip:   subq r1, #1, r1
        bgt r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewIdeal(8)
	wp := emu.New(p)
	a, err := runProgram(cfg, "shadow", p, 1_000_000, Options{WrongPath: wp})
	if err != nil {
		t.Fatal(err)
	}
	if a.WrongPathIssued == 0 {
		t.Fatal("no wrong-path work issued")
	}
	ref := emu.New(p)
	if _, err := ref.Run(1_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if !wp.Halted() || wp.InstCount() != ref.InstCount() || wp.Regs != ref.Regs || !wp.Mem.Equal(ref.Mem) {
		t.Errorf("fetch-order emulator after the run: halted %v after %d instructions, registers equal %v, memory equal %v; reference %d instructions",
			wp.Halted(), wp.InstCount(), wp.Regs == ref.Regs, wp.Mem.Equal(ref.Mem), ref.InstCount())
	}
	b, err := runProgram(cfg, "shadow", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("wrong-path runs nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestWrongPathFollowsCallsAndJumps(t *testing.T) {
	// Wrong paths that run into subroutine calls and indirect jumps must
	// keep fetching through them (BSR/BR are direct; indirect targets come
	// from the BTB) and stop cleanly at a halt or unknown target.
	p, err := asm.Assemble(`
        .entry main
fn:     addq r2, #1, r2
        ret  r31, (r26)
main:   li r1, 3000
        li r9, 88172645
loop:   sll r9, #13, r3
        xor r9, r3, r9
        srl r9, #7, r3
        xor r9, r3, r9
        sll r9, #17, r3
        xor r9, r3, r9
        srl r9, #29, r4
        blbs r4, call
        addq r8, #1, r8
        br r31, next
call:   bsr r26, fn
next:   subq r1, #1, r1
        bgt r1, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewIdeal(8)
	r, err := runProgram(cfg, "wpcalls", p, 1_000_000, Options{WrongPath: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	if r.WrongPathIssued == 0 {
		t.Error("no wrong-path work through calls")
	}
	trace := mustTrace(t, p)
	if r.Instructions != int64(len(trace)) {
		t.Errorf("retired %d of %d", r.Instructions, len(trace))
	}
}

// TestRunModeEmulatorsMustStartAtTheTrace: a WrongPath or Oracle emulator
// that is not positioned at the trace's first instruction ends the run with
// an error naming the mismatch at that instruction instead of silently
// drifting.
func TestRunModeEmulatorsMustStartAtTheTrace(t *testing.T) {
	p := unpredictableProgram(t)
	dec := decodeTrace(t, mustTrace(t, p))
	for name, tc := range map[string]struct {
		opt  func(*emu.Emulator) Options
		want string
	}{
		"wrong-path": {func(e *emu.Emulator) Options { return Options{WrongPath: e} },
			"wrong-path emulator is at pc 1 after 1 instructions, but fetch reads pc 0"},
		"oracle": {func(e *emu.Emulator) Options { return Options{Oracle: e} },
			"lockstep divergence at instruction 1 (pc 1: "},
	} {
		if _, err := Run(machine.NewRBFull(8), "w", dec, tc.opt(emu.New(p))); err != nil {
			t.Fatalf("%s: emulator at the first instruction: %v", name, err)
		}
		e := emu.New(p)
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		_, err := Run(machine.NewRBFull(8), "w", dec, tc.opt(e))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: an emulator one instruction past the trace's start: %v; want an error containing %q", name, err, tc.want)
		}
	}
}
