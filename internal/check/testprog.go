package check

import (
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// emuDecode executes a synthetic program on the functional emulator (bounded
// by max instructions) and streams its committed stream into a timing
// trace, noting which dynamic instructions write a register.
func emuDecode(prog *isa.Program, max int64) (dec *core.Decoded, writes []bool, err error) {
	var d core.Decoder
	if _, err := emu.New(prog).Run(max, func(te emu.TraceEntry) {
		d.Add(&te)
		writes = append(writes, te.HasResult)
	}); err != nil {
		return nil, nil, err
	}
	dec, err = d.Decoded()
	return dec, writes, err
}

// mixedProgram builds a small loop, iterated iters times, that exercises the
// datapath shapes the oracle must police: dependent RB arithmetic chains,
// logicals, shifts, a store/load round trip through memory, and a loop-back
// conditional branch. Built directly from instruction structs so the check
// suite does not depend on the assembler.
func mixedProgram(iters int64) *isa.Program {
	const (
		acc  = isa.Reg(1) // running accumulator
		base = isa.Reg(2) // memory base address
		ctr  = isa.Reg(3) // loop counter
		t0   = isa.Reg(4)
		t1   = isa.Reg(5)
		t2   = isa.Reg(6)
		t3   = isa.Reg(7)
	)
	op3 := func(op isa.Op, ra isa.Reg, imm int64, rc isa.Reg) isa.Instruction {
		return isa.Instruction{Op: op, Ra: ra, Rc: rc, Imm: imm, UseImm: true}
	}
	reg3 := func(op isa.Op, ra, rb, rc isa.Reg) isa.Instruction {
		return isa.Instruction{Op: op, Ra: ra, Rb: rb, Rc: rc}
	}
	insts := []isa.Instruction{
		{Op: isa.LDA, Ra: acc, Rb: isa.RZero, Imm: 0x1234},
		{Op: isa.LDA, Ra: base, Rb: isa.RZero, Imm: 0x4000},
		{Op: isa.LDA, Ra: ctr, Rb: isa.RZero, Imm: iters},
		// loop:
		op3(isa.ADDQ, acc, 7, acc),
		op3(isa.SUBQ, acc, 3, t0),
		reg3(isa.XOR, t0, acc, t1),
		{Op: isa.STQ, Ra: t1, Rb: base, Imm: 8},
		{Op: isa.LDQ, Ra: t2, Rb: base, Imm: 8},
		reg3(isa.ADDQ, t2, acc, acc),
		op3(isa.SLL, t0, 1, t3),
		reg3(isa.SUBQ, acc, t3, acc),
		op3(isa.SUBQ, ctr, 1, ctr),
		{Op: isa.BNE, Ra: ctr, Imm: -10}, // back to loop
		{Op: isa.HALT},
	}
	return &isa.Program{Insts: insts}
}
