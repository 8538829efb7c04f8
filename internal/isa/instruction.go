package isa

import (
	"fmt"
	"strings"
)

// Instruction is one decoded instruction. Program counters are instruction
// indices (the simulated machine fetches whole instructions; the binary
// encoding exists for storage and round-trip testing).
//
// Operand roles by group:
//
//   - Operate (arithmetic/logical/compare/CMOV): Rc = Ra op (Rb or literal).
//     CMOVs additionally read the old value of Rc.
//   - LDA/LDAH: Ra = Rb + displacement.
//   - Memory: loads Ra = mem[Rb + disp]; stores mem[Rb + disp] = Ra.
//   - Conditional branch: test Ra, target = pc + 1 + disp.
//   - BR/BSR: Ra = return address, target = pc + 1 + disp.
//   - JMP/JSR/RET: Ra = return address, target address in Rb.
type Instruction struct {
	Op Op
	Ra Reg
	Rb Reg
	Rc Reg
	// UseImm selects the literal instead of Rb for operate instructions.
	// It sits beside the byte-sized fields so the struct packs into 16
	// bytes (TestLayoutBudget pins the size).
	UseImm bool
	// Imm is the literal second operand (UseImm true), the memory/LDA
	// displacement, or the branch displacement in instructions.
	Imm int64
}

// Class returns the paper classification of the instruction's opcode.
func (in Instruction) Class() Class { return ClassOf(in.Op) }

// EffectiveClass refines Class with the paper's §3.6 MOV exception: a
// logical operation whose two source register operands are the same register
// (the standard Alpha MOV idiom, BIS Ra,Ra,Rc) does not need 2's-complement
// inputs — it copies the value in whatever representation it arrives, so it
// executes as an RB-input, RB-output instruction.
func (in Instruction) EffectiveClass() Class {
	c := ClassOf(in.Op)
	if in.IsMove() {
		c.In = FormatRB
		c.Out = FormatRB
		c.Row = Row1ArithRBRB
	}
	return c
}

// IsMove reports whether the instruction is the Alpha MOV idiom: a BIS (or
// other idempotent logical) with both register sources equal and no literal.
func (in Instruction) IsMove() bool {
	switch in.Op {
	case BIS, AND:
		return !in.UseImm && in.Ra == in.Rb
	}
	return false
}

// Dest returns the destination register, if any. Writes to R31 are discarded
// and reported as no destination.
func (in Instruction) Dest() (Reg, bool) {
	c := ClassOf(in.Op)
	var d Reg
	switch {
	case c.Out == FormatNone:
		return 0, false
	case in.Op == LDA || in.Op == LDAH || c.IsLoad || c.IsUncondBranch:
		d = in.Ra
	default:
		d = in.Rc
	}
	if d == RZero {
		return 0, false
	}
	return d, true
}

// IsCMOV reports whether the instruction is a conditional move (which reads
// its destination register).
func (in Instruction) IsCMOV() bool {
	switch in.Op {
	case CMOVEQ, CMOVNE, CMOVLT, CMOVGE, CMOVLE, CMOVGT, CMOVLBS, CMOVLBC:
		return true
	}
	return false
}

// Srcs appends the source registers of the instruction to dst and returns
// it. R31 never appears (it is constant zero and creates no dependence).
func (in Instruction) Srcs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RZero {
			dst = append(dst, r)
		}
	}
	c := ClassOf(in.Op)
	switch {
	case in.Op == LDA || in.Op == LDAH:
		add(in.Rb)
	case c.IsLoad:
		add(in.Rb) // base
	case c.IsStore:
		add(in.Ra) // data
		add(in.Rb) // base
	case c.IsCondBranch:
		add(in.Ra)
	case c.IsIndirect:
		add(in.Rb)
	case c.IsUncondBranch: // BR/BSR: no register sources
	case in.Op == HALT:
	case in.Op == SEXTB || in.Op == SEXTW || in.Op == CTLZ || in.Op == CTTZ || in.Op == CTPOP:
		if !in.UseImm {
			add(in.Rb)
		}
	default: // operate
		add(in.Ra)
		if !in.UseImm {
			add(in.Rb)
		}
		if in.IsCMOV() {
			add(in.Rc) // old destination value
		}
	}
	return dst
}

// String renders the instruction in the assembler syntax accepted by
// internal/asm. Branch targets print as relative displacements.
func (in Instruction) String() string {
	c := ClassOf(in.Op)
	var b strings.Builder
	b.WriteString(in.Op.String())
	b.WriteByte(' ')
	switch {
	case in.Op == LDA || in.Op == LDAH:
		fmt.Fprintf(&b, "%v, %d(%v)", in.Ra, in.Imm, in.Rb)
	case c.IsLoad || c.IsStore:
		fmt.Fprintf(&b, "%v, %d(%v)", in.Ra, in.Imm, in.Rb)
	case c.IsCondBranch:
		fmt.Fprintf(&b, "%v, .%+d", in.Ra, in.Imm)
	case in.Op == BR || in.Op == BSR:
		fmt.Fprintf(&b, "%v, .%+d", in.Ra, in.Imm)
	case c.IsIndirect:
		fmt.Fprintf(&b, "%v, (%v)", in.Ra, in.Rb)
	case in.Op == HALT:
		return in.Op.String()
	case in.Op == SEXTB || in.Op == SEXTW || in.Op == CTLZ || in.Op == CTTZ || in.Op == CTPOP:
		if in.UseImm {
			fmt.Fprintf(&b, "#%d, %v", in.Imm, in.Rc)
		} else {
			fmt.Fprintf(&b, "%v, %v", in.Rb, in.Rc)
		}
	default:
		if in.UseImm {
			fmt.Fprintf(&b, "%v, #%d, %v", in.Ra, in.Imm, in.Rc)
		} else {
			fmt.Fprintf(&b, "%v, %v, %v", in.Ra, in.Rb, in.Rc)
		}
	}
	return b.String()
}

// Encoding limits. Immediates are stored as a signed 32-bit field, wider
// than Alpha's but convenient for synthetic workloads; memory displacements
// stay within Alpha's signed 16 bits.
const (
	immBits = 32
	immMax  = 1<<(immBits-1) - 1
	immMin  = -(1 << (immBits - 1))
)

// Encode packs the instruction into a 64-bit word:
//
//	[63:56] opcode  [55:51] Ra  [50:46] Rb  [45:41] Rc  [40] UseImm
//	[31:0]  immediate (signed)
//
// It reports an error if the immediate does not fit.
func (in Instruction) Encode() (uint64, error) {
	if in.Op == OpInvalid || int(in.Op) >= NumOps {
		return 0, fmt.Errorf("isa: cannot encode invalid opcode %d", in.Op)
	}
	if in.Imm > immMax || in.Imm < immMin {
		return 0, fmt.Errorf("isa: immediate %d out of range for %v", in.Imm, in.Op)
	}
	w := uint64(in.Op) << 56
	w |= uint64(in.Ra&31) << 51
	w |= uint64(in.Rb&31) << 46
	w |= uint64(in.Rc&31) << 41
	if in.UseImm {
		w |= 1 << 40
	}
	w |= uint64(uint32(int32(in.Imm)))
	return w, nil
}

// Decode unpacks an instruction encoded by Encode.
func Decode(w uint64) (Instruction, error) {
	op := Op(w >> 56)
	if op == OpInvalid || int(op) >= NumOps {
		return Instruction{}, fmt.Errorf("isa: invalid opcode %d in word %#x", uint8(op), w)
	}
	return Instruction{
		Op:     op,
		Ra:     Reg(w >> 51 & 31),
		Rb:     Reg(w >> 46 & 31),
		Rc:     Reg(w >> 41 & 31),
		UseImm: w>>40&1 != 0,
		Imm:    int64(int32(uint32(w))),
	}, nil
}

// Program is a decoded instruction sequence plus initial data memory.
type Program struct {
	// Insts are the instructions; the PC is an index into this slice.
	Insts []Instruction
	// Data maps initial byte addresses to contents.
	Data map[uint64][]byte
	// Entry is the starting PC.
	Entry int
	// Labels maps symbol names to instruction indices (for diagnostics).
	Labels map[string]int
}
