package core

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rb"
)

// rbVal is one architectural register's redundant binary state: the last
// value written, in RB form, when the writer produced an RB result that has
// not since been overwritten by a 2's-complement writer.
type rbVal struct {
	n     rb.Number
	valid bool
}

// datapathCheck recomputes an RB-executable instruction's result through the
// redundant binary datapath — consuming operands in whatever representation
// the bypass network would deliver them (forwarded RB numbers from RB
// producers, hardwired conversions of TC values otherwise) — and verifies
// the converted result against the reference step ref. This is the end-to-end
// correctness argument for the paper's forwarding scheme: dependent chains
// of RB operations never convert intermediate values, yet commit identical
// architectural state. A mismatch is a *DivergenceError naming the RB datapath.
func (s *Simulator) datapathCheck(ref *emu.TraceEntry, cycle int64) error {
	in := ref.Inst

	// Operand fetch: RB representation if the producing write left one,
	// otherwise the hardwired TC->RB conversion of the architectural value.
	regRB := func(r isa.Reg) rb.Number {
		if r == isa.RZero {
			return rb.FromInt(0)
		}
		if s.dpRB[r].valid {
			return s.dpRB[r].n
		}
		return rb.FromUint(s.commitRegs[r])
	}
	opB := func() rb.Number {
		if in.UseImm {
			return rb.FromInt(in.Imm)
		}
		return regRB(in.Rb)
	}

	var result rb.Number
	computed := true
	switch {
	case in.IsMove():
		// §3.6 MOV exception: a logical op with identical source registers
		// moves the value in whatever representation it arrived; a redundant
		// form is preserved rather than converted.
		result = regRB(in.Ra)
	case in.Op == isa.ADDQ:
		result, _ = rb.Add(regRB(in.Ra), opB())
	case in.Op == isa.ADDL:
		q, _ := rb.Add(regRB(in.Ra), opB())
		result = q.Longword()
	case in.Op == isa.SUBQ:
		result, _ = rb.Sub(regRB(in.Ra), opB())
	case in.Op == isa.SUBL:
		q, _ := rb.Sub(regRB(in.Ra), opB())
		result = q.Longword()
	case in.Op == isa.S4ADDQ:
		result, _ = rb.ScaledAdd(regRB(in.Ra), 2, opB())
	case in.Op == isa.S8ADDQ:
		result, _ = rb.ScaledAdd(regRB(in.Ra), 3, opB())
	case in.Op == isa.S4SUBQ:
		result, _ = rb.ScaledSub(regRB(in.Ra), 2, opB())
	case in.Op == isa.S8SUBQ:
		result, _ = rb.ScaledSub(regRB(in.Ra), 3, opB())
	case in.Op == isa.LDA:
		result, _ = rb.Add(regRB(in.Rb), rb.FromInt(in.Imm))
	case in.Op == isa.LDAH:
		result, _ = rb.Add(regRB(in.Rb), rb.FromInt(in.Imm*65536))
	case in.Op == isa.MULQ:
		result = rb.Mul(regRB(in.Ra), opB())
	case in.Op == isa.MULL:
		result = rb.MulLongword(regRB(in.Ra), opB())
	case in.Op == isa.SLL:
		var amount uint64
		if in.UseImm {
			amount = uint64(in.Imm)
		} else {
			amount = s.commitRegs[in.Rb] // shift amounts read the architectural value
		}
		result = regRB(in.Ra).ShiftLeft(uint(amount & 63))
	case in.IsCMOV():
		// Condition tests operate directly on the redundant representation
		// (§3.6): sign from the leading nonzero digit, zero from a wide OR,
		// LSB from the low digit's two bits.
		a := regRB(in.Ra)
		var take bool
		switch in.Op {
		case isa.CMOVEQ:
			take = a.IsZero()
		case isa.CMOVNE:
			take = !a.IsZero()
		case isa.CMOVLT:
			take = a.Sign() < 0
		case isa.CMOVGE:
			take = a.Sign() >= 0
		case isa.CMOVLE:
			take = a.Sign() <= 0
		case isa.CMOVGT:
			take = a.Sign() > 0
		case isa.CMOVLBS:
			take = a.LSB()
		case isa.CMOVLBC:
			take = !a.LSB()
		}
		if take {
			result = opB()
		} else {
			result = regRB(in.Rc)
		}
	case in.Op == isa.CMPEQ || in.Op == isa.CMPLT || in.Op == isa.CMPLE:
		// Signed compares subtract in the RB domain and test the difference.
		diff, _ := rb.Sub(regRB(in.Ra), opB())
		var v bool
		switch in.Op {
		case isa.CMPEQ:
			v = diff.IsZero()
		case isa.CMPLT:
			v = diff.Sign() < 0
		case isa.CMPLE:
			v = diff.Sign() <= 0
		}
		result = rb.FromUint(b2u(v))
	case in.Op == isa.CTTZ:
		// CTTZ counts trailing zero digits directly in RB (§3.6).
		result = rb.FromUint(uint64(opB().TrailingZeroDigits()))
	case isa.ClassOf(in.Op).IsCondBranch:
		// Conditional branches test the redundant representation (§3.6).
		a := regRB(in.Ra)
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = a.IsZero()
		case isa.BNE:
			taken = !a.IsZero()
		case isa.BLT:
			taken = a.Sign() < 0
		case isa.BGE:
			taken = a.Sign() >= 0
		case isa.BLE:
			taken = a.Sign() <= 0
		case isa.BGT:
			taken = a.Sign() > 0
		case isa.BLBC:
			taken = !a.LSB()
		case isa.BLBS:
			taken = a.LSB()
		}
		if taken != ref.Taken {
			return s.divergence(ref, "RB datapath branch outcome", b2u(taken), b2u(ref.Taken), cycle)
		}
		s.res.DatapathChecked++
		computed = false
	default:
		computed = false
	}

	if computed {
		// A result with overlapping indicator bits means the RB arithmetic
		// itself broke the §3.2 encoding; catch it before it enters the
		// register file, where it would corrupt every downstream read.
		if err := result.Validate(); err != nil {
			return s.divergence(ref, fmt.Sprintf("RB datapath encoding (%v)", err), result.Uint(), ref.Result, cycle)
		}
		if ref.HasResult && result.Uint() != ref.Result {
			return s.divergence(ref, "RB datapath result", result.Uint(), ref.Result, cycle)
		}
		s.res.DatapathChecked++
	}

	// Record the result's representation for subsequent operand fetches.
	if d, ok := in.Dest(); ok {
		if computed && in.EffectiveClass().Out == isa.FormatRB {
			s.dpRB[d] = rbVal{n: result, valid: true}
		} else {
			s.dpRB[d] = rbVal{}
		}
	}
	return nil
}
