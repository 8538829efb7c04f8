package check

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/rb"
)

// FuzzAdderEquivalence differentially fuzzes the whole arithmetic stack on
// one operand pair: word-level RB addition and subtraction, the digit-serial
// reference, carry-save, radix-4, and randomly re-encoded redundant forms
// must all agree with native 64-bit arithmetic.
func FuzzAdderEquivalence(f *testing.F) {
	for i, x := range BoundaryOperands {
		f.Add(x, BoundaryOperands[(i+1)%len(BoundaryOperands)])
		f.Add(x, x)
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		na, nb := rb.FromUint(a), rb.FromUint(b)
		if sum, _ := rb.Add(na, nb); sum.Uint() != a+b {
			t.Fatalf("rb.Add(%#x, %#x) = %#x, want %#x", a, b, sum.Uint(), a+b)
		}
		if diff, _ := rb.Sub(na, nb); diff.Uint() != a-b {
			t.Fatalf("rb.Sub(%#x, %#x) = %#x, want %#x", a, b, diff.Uint(), a-b)
		}
		if ds, _ := rb.AddDigitSerial(na, nb); ds.Uint() != a+b {
			t.Fatalf("rb.AddDigitSerial(%#x, %#x) = %#x, want %#x", a, b, ds.Uint(), a+b)
		}
		if cs := rb.CSFromUint(a).AddUint(b); cs.Uint() != a+b || cs.ToRB().Uint() != a+b {
			t.Fatalf("carry-save %#x + %#x = %#x / %#x, want %#x", a, b, cs.Uint(), cs.ToRB().Uint(), a+b)
		}
		if r4 := rb.R4Add(rb.R4FromUint(a), rb.R4FromUint(b)); r4.Uint() != a+b {
			t.Fatalf("R4Add(%#x, %#x) = %#x, want %#x", a, b, r4.Uint(), a+b)
		}
		// The same identities must hold for arbitrary members of each value's
		// representation class, deterministically derived from the inputs.
		rnd := rand.New(rand.NewSource(int64(a*0x9E3779B97F4A7C15 ^ b)))
		fa, fb := rb.RedundantForm(a, rnd), rb.RedundantForm(b, rnd)
		if fa.Uint() != a || fb.Uint() != b {
			t.Fatalf("RedundantForm changed value: %#x->%#x, %#x->%#x", a, fa.Uint(), b, fb.Uint())
		}
		if sum, _ := rb.Add(fa, fb); sum.Uint() != a+b {
			t.Fatalf("rb.Add on redundant forms of (%#x, %#x) = %#x, want %#x", a, b, sum.Uint(), a+b)
		}
	})
}

// fuzzOps is the opcode menu FuzzLockstep draws from: arithmetic, logic,
// shifts, compares, conditional moves, and memory — everything except
// backward control flow, so any generated program terminates.
var fuzzOps = []isa.Op{
	isa.ADDQ, isa.SUBQ, isa.S4ADDQ, isa.S8SUBQ, isa.MULQ,
	isa.AND, isa.BIS, isa.XOR, isa.ORNOT,
	isa.SLL, isa.SRL, isa.SRA,
	isa.CMPEQ, isa.CMPLT, isa.CMPULE,
	isa.CMOVEQ, isa.CMOVNE,
	isa.SEXTB, isa.CTPOP,
	isa.LDQ, isa.STQ, isa.LDA,
	isa.BEQ, isa.BNE, isa.BGE, isa.BLBS,
}

// fuzzBase is the memory-base register generated programs address through.
const fuzzBase = isa.Reg(10)

// programFromBytes decodes fuzz input into a terminating program: each
// 3-byte chunk selects an opcode, registers r1-r8, and a literal; branches
// are forward-only and memory accesses stay within a small window above the
// base address. A HALT is always appended.
func programFromBytes(data []byte) *isa.Program {
	insts := []isa.Instruction{
		{Op: isa.LDA, Ra: fuzzBase, Rb: isa.RZero, Imm: 4096},
		{Op: isa.LDA, Ra: 1, Rb: isa.RZero, Imm: 0x77}, // seed a couple of regs
		{Op: isa.LDA, Ra: 2, Rb: isa.RZero, Imm: -9},
	}
	if len(data) > 3*256 {
		data = data[:3*256] // bound program size
	}
	for ; len(data) >= 3; data = data[3:] {
		op := fuzzOps[int(data[0])%len(fuzzOps)]
		ra := isa.Reg(1 + data[1]&7)
		rc := isa.Reg(1 + data[1]>>3&7)
		var in isa.Instruction
		switch {
		case op == isa.LDA:
			in = isa.Instruction{Op: op, Ra: rc, Rb: ra, Imm: int64(int8(data[2]))}
		case op == isa.LDQ:
			in = isa.Instruction{Op: op, Ra: rc, Rb: fuzzBase, Imm: int64(data[2]%32) * 8}
		case op == isa.STQ:
			in = isa.Instruction{Op: op, Ra: ra, Rb: fuzzBase, Imm: int64(data[2]%32) * 8}
		case isa.ClassOf(op).IsCondBranch:
			in = isa.Instruction{Op: op, Ra: ra, Imm: 1 + int64(data[2]%4)}
		case data[2]&1 != 0:
			in = isa.Instruction{Op: op, Ra: ra, Rc: rc, Imm: int64(data[2] >> 1), UseImm: true}
		default:
			rbReg := isa.Reg(1 + data[2]>>1&7)
			in = isa.Instruction{Op: op, Ra: ra, Rb: rbReg, Rc: rc}
		}
		insts = append(insts, in)
	}
	// Clamp branch displacements to land on or before the final HALT.
	haltIdx := len(insts)
	for i := range insts {
		if isa.ClassOf(insts[i].Op).IsCondBranch {
			if max := int64(haltIdx - i - 1); insts[i].Imm > max {
				insts[i].Imm = max
			}
		}
	}
	insts = append(insts, isa.Instruction{Op: isa.HALT})
	return &isa.Program{Insts: insts}
}

// FuzzLockstep feeds generated programs through the lockstep oracle on a
// Baseline and an RB machine: the timing cores must commit exactly the
// functional reference's stream, and two independent functional runs must
// land on identical architectural state.
func FuzzLockstep(f *testing.F) {
	f.Add([]byte{})
	// Dependent arithmetic chain.
	f.Add([]byte{0, 0x09, 0x02, 0, 0x09, 0x02, 0, 0x09, 0x02, 0, 0x09, 0x02})
	// Store/load round trip with an aliasing window.
	f.Add([]byte{20, 0x09, 0x10, 19, 0x11, 0x10, 0, 0x0a, 0x04, 20, 0x12, 0x10, 19, 0x09, 0x10})
	// Branch-dense input skipping over value producers.
	f.Add([]byte{22, 0x09, 0x03, 0, 0x09, 0x02, 23, 0x12, 0x01, 1, 0x1b, 0x06, 24, 0x24, 0x02})
	// Conditional moves and compares feeding branches.
	f.Add([]byte{12, 0x09, 0x04, 15, 0x21, 0x02, 16, 0x0a, 0x08, 25, 0x09, 0x01})
	// A CMPLT whose RB subtraction overflows: 0x7fffffffffffffe8 < -48 is
	// false although the wrapped difference is negative.
	f.Add([]byte("7A17\xcdaA\x931XA$A020"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := programFromBytes(data)
		dec, _, err := emuDecode(prog, 2048)
		if err != nil {
			t.Skip() // e.g. arithmetic the emulator rejects; not a lockstep question
		}
		for _, cfg := range []machine.Config{machine.NewBaseline(4), machine.NewRBFull(4)} {
			if _, err := core.Run(cfg, "fuzz", dec, core.Options{Oracle: emu.New(prog)}); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		}
		// Replaying the program must reproduce identical architectural state.
		e1, e2 := emu.New(prog), emu.New(prog)
		if _, err := e1.Run(2048, nil); err != nil {
			t.Skip()
		}
		if _, err := e2.Run(2048, nil); err != nil {
			t.Fatal(err)
		}
		if e1.Regs != e2.Regs {
			t.Fatal("two functional runs diverged in registers")
		}
		if !e1.Mem.Equal(e2.Mem) {
			t.Fatal("two functional runs diverged in memory")
		}
	})
}
