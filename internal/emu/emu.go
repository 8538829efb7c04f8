// Package emu is the functional (architectural) emulator for the Alpha-like
// ISA of internal/isa. It executes programs in 2's complement, producing the
// committed dynamic instruction stream that drives the timing simulator in
// internal/core, and it serves as the golden model the redundant-binary
// datapath is cross-checked against.
package emu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
)

// TraceEntry records one committed instruction.
//
// The two flags sit at the end so the struct packs into 64 bytes: the
// experiment matrix caches millions of entries, and TestLayoutBudget pins
// the size so a new field re-budgets that cache on purpose.
type TraceEntry struct {
	// Seq is the dynamic instruction number, starting at 0.
	Seq int64
	// PC is the instruction index.
	PC int
	// Inst is the executed instruction.
	Inst isa.Instruction
	// Result is the value written to the destination register (valid when
	// HasResult).
	Result uint64
	// EA is the effective address of a memory access (valid for loads and
	// stores).
	EA uint64
	// NextPC is the instruction index executed next.
	NextPC int
	// HasResult reports whether a register was written.
	HasResult bool
	// Taken reports the outcome for branch instructions (always true for
	// unconditional and indirect branches).
	Taken bool
}

// Emulator holds architectural state.
type Emulator struct {
	Regs [isa.NumRegs]uint64
	Mem  *Memory
	PC   int

	prog   *isa.Program
	halted bool
	seq    int64
}

// New builds an emulator with the program's initial data loaded.
func New(prog *isa.Program) *Emulator {
	e := &Emulator{Mem: NewMemory(), PC: prog.Entry, prog: prog}
	for addr, bytes := range prog.Data {
		for i, b := range bytes {
			e.Mem.StoreByte(addr+uint64(i), b)
		}
	}
	return e
}

// Halted reports whether the program has executed HALT.
func (e *Emulator) Halted() bool { return e.halted }

// InstCount is the number of committed instructions so far.
func (e *Emulator) InstCount() int64 { return e.seq }

// State is a resumable snapshot of the architectural machine state: the
// register file, PC, halt flag, dynamic instruction count, and a
// copy-on-write memory snapshot. It is the in-memory form of a checkpoint
// (internal/ckpt owns the on-disk encoding).
type State struct {
	Regs   [isa.NumRegs]uint64
	PC     int
	Halted bool
	Seq    int64
	Mem    *MemSnapshot
}

// State captures the emulator's architectural state. The emulator keeps
// running afterwards; memory pages are shared copy-on-write.
func (e *Emulator) State() *State {
	return &State{Regs: e.Regs, PC: e.PC, Halted: e.halted, Seq: e.seq, Mem: e.Mem.Snapshot()}
}

// Resume builds an emulator continuing from a captured state. The program
// must be the same image the state was captured from; Resume does not (and
// cannot) verify that, so callers pair states with a program identity (the
// checkpoint format records the workload name and instruction count).
func Resume(prog *isa.Program, st *State) *Emulator {
	return &Emulator{
		Regs: st.Regs, Mem: st.Mem.NewMemory(), PC: st.PC,
		prog: prog, halted: st.Halted, seq: st.Seq,
	}
}

// Fork returns an independent copy of the emulator: registers, PC and
// instruction count are copied, and memory is shared copy-on-write
// (Memory.Snapshot), so neither copy sees the other's later stores. The
// timing core runs each wrong path on a fork of its fetch-order emulator.
func (e *Emulator) Fork() *Emulator {
	f := *e
	f.Mem = e.Mem.Snapshot().NewMemory()
	return &f
}

// Program is the image the emulator executes.
func (e *Emulator) Program() *isa.Program { return e.prog }

// writeDest commits a register result and records it in the trace entry.
func (e *Emulator) writeDest(t *TraceEntry, r isa.Reg, v uint64) {
	if r == isa.RZero {
		return // discarded, and not recorded in the trace
	}
	e.Regs[r] = v
	t.Result, t.HasResult = v, true
}

// Step executes one instruction and returns its trace entry.
func (e *Emulator) Step() (TraceEntry, error) {
	var t TraceEntry
	err := e.StepInto(&t)
	return t, err
}

// StepInto executes one instruction, writing its trace entry into t — the
// allocation-free form of Step for fast-forward loops that execute millions
// of instructions and inspect each entry in place.
//
//rblint:hotpath fast-forward inner step: the sampler executes millions of these per cell plan
func (e *Emulator) StepInto(t *TraceEntry) error {
	if e.halted {
		return errHalted
	}
	if e.PC < 0 || e.PC >= len(e.prog.Insts) {
		return e.errPCRange()
	}
	in := e.prog.Insts[e.PC]
	*t = TraceEntry{Seq: e.seq, PC: e.PC, Inst: in, NextPC: e.PC + 1}

	ra := e.Regs[in.Ra]
	rb := e.Regs[in.Rb]
	if in.UseImm {
		rb = uint64(in.Imm)
	}
	c := isa.ClassOf(in.Op)

	switch {
	case in.Op == isa.HALT:
		e.halted = true
	case in.Op == isa.LDA:
		e.writeDest(t, in.Ra, e.Regs[in.Rb]+uint64(in.Imm))
	case in.Op == isa.LDAH:
		e.writeDest(t, in.Ra, e.Regs[in.Rb]+uint64(in.Imm)*65536)
	case c.IsLoad:
		t.EA = e.Regs[in.Rb] + uint64(in.Imm)
		var v uint64
		switch in.Op {
		case isa.LDQ:
			v = e.Mem.Read(t.EA, 8)
		case isa.LDL:
			v = uint64(int64(int32(uint32(e.Mem.Read(t.EA, 4)))))
		case isa.LDBU:
			v = e.Mem.Read(t.EA, 1)
		}
		e.writeDest(t, in.Ra, v)
	case c.IsStore:
		t.EA = e.Regs[in.Rb] + uint64(in.Imm)
		switch in.Op {
		case isa.STQ:
			e.Mem.Write(t.EA, 8, ra)
		case isa.STL:
			e.Mem.Write(t.EA, 4, ra)
		case isa.STB:
			e.Mem.Write(t.EA, 1, ra)
		}
	case c.IsCondBranch:
		t.Taken = condTaken(in.Op, ra)
		if t.Taken {
			t.NextPC = e.PC + 1 + int(in.Imm)
		}
	case in.Op == isa.BR || in.Op == isa.BSR:
		t.Taken = true
		e.writeDest(t, in.Ra, uint64(e.PC+1))
		t.NextPC = e.PC + 1 + int(in.Imm)
	case in.Op == isa.JMP, in.Op == isa.JSR, in.Op == isa.RET:
		t.Taken = true
		target := int(rb)
		e.writeDest(t, in.Ra, uint64(e.PC+1))
		t.NextPC = target
	default:
		v, err := evalOperate(in.Op, ra, rb, e.Regs[in.Rc])
		if err != nil {
			return e.errEval(err)
		}
		e.writeDest(t, in.Rc, v)
	}

	e.PC = t.NextPC
	e.seq++
	return nil
}

// errPCRange and errEval keep error construction (and its interface boxing)
// out of StepInto's hot body; they run at most once per simulation.
func (e *Emulator) errPCRange() error {
	return fmt.Errorf("emu: pc %d out of range [0,%d)", e.PC, len(e.prog.Insts))
}

func (e *Emulator) errEval(err error) error {
	return fmt.Errorf("emu: pc %d: %v", e.PC, err)
}

// errHalted is allocated once so the hotpath Step never constructs an error
// on the (caller-checkable) already-halted path.
var errHalted = fmt.Errorf("emu: program has halted")

// condTaken evaluates a conditional branch test on a register value.
func condTaken(op isa.Op, v uint64) bool {
	s := int64(v)
	switch op {
	case isa.BEQ:
		return s == 0
	case isa.BNE:
		return s != 0
	case isa.BLT:
		return s < 0
	case isa.BGE:
		return s >= 0
	case isa.BLE:
		return s <= 0
	case isa.BGT:
		return s > 0
	case isa.BLBC:
		return v&1 == 0
	case isa.BLBS:
		return v&1 != 0
	}
	panic("emu: not a conditional branch: " + op.String())
}

// evalOperate computes the result of a three-operand (or one-input) operate
// instruction. rcOld is the previous destination value, used by conditional
// moves.
func evalOperate(op isa.Op, ra, rb, rcOld uint64) (uint64, error) {
	sext32 := func(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }
	b01 := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case isa.ADDQ:
		return ra + rb, nil
	case isa.ADDL:
		return sext32(ra + rb), nil
	case isa.SUBQ:
		return ra - rb, nil
	case isa.SUBL:
		return sext32(ra - rb), nil
	case isa.S4ADDQ:
		return ra*4 + rb, nil
	case isa.S8ADDQ:
		return ra*8 + rb, nil
	case isa.S4SUBQ:
		return ra*4 - rb, nil
	case isa.S8SUBQ:
		return ra*8 - rb, nil
	case isa.MULQ:
		return ra * rb, nil
	case isa.MULL:
		return sext32(ra * rb), nil
	case isa.SLL:
		return ra << (rb & 63), nil
	case isa.SRL:
		return ra >> (rb & 63), nil
	case isa.SRA:
		return uint64(int64(ra) >> (rb & 63)), nil
	case isa.AND:
		return ra & rb, nil
	case isa.BIS:
		return ra | rb, nil
	case isa.XOR:
		return ra ^ rb, nil
	case isa.BIC:
		return ra &^ rb, nil
	case isa.ORNOT:
		return ra | ^rb, nil
	case isa.EQV:
		return ra ^ ^rb, nil
	case isa.CTLZ:
		return uint64(bits.LeadingZeros64(rb)), nil
	case isa.CTTZ:
		return uint64(bits.TrailingZeros64(rb)), nil
	case isa.CTPOP:
		return uint64(bits.OnesCount64(rb)), nil
	case isa.EXTBL:
		return ra >> (8 * (rb & 7)) & 0xff, nil
	case isa.INSBL:
		return (ra & 0xff) << (8 * (rb & 7)), nil
	case isa.MSKBL:
		return ra &^ (uint64(0xff) << (8 * (rb & 7))), nil
	case isa.ZAPNOT:
		var mask uint64
		for i := 0; i < 8; i++ {
			if rb>>i&1 != 0 {
				mask |= uint64(0xff) << (8 * i)
			}
		}
		return ra & mask, nil
	case isa.SEXTB:
		return uint64(int64(int8(uint8(rb)))), nil
	case isa.SEXTW:
		return uint64(int64(int16(uint16(rb)))), nil
	case isa.CMPEQ:
		return b01(ra == rb), nil
	case isa.CMPLT:
		return b01(int64(ra) < int64(rb)), nil
	case isa.CMPLE:
		return b01(int64(ra) <= int64(rb)), nil
	case isa.CMPULT:
		return b01(ra < rb), nil
	case isa.CMPULE:
		return b01(ra <= rb), nil
	case isa.CMOVEQ:
		return cmov(int64(ra) == 0, rb, rcOld), nil
	case isa.CMOVNE:
		return cmov(int64(ra) != 0, rb, rcOld), nil
	case isa.CMOVLT:
		return cmov(int64(ra) < 0, rb, rcOld), nil
	case isa.CMOVGE:
		return cmov(int64(ra) >= 0, rb, rcOld), nil
	case isa.CMOVLE:
		return cmov(int64(ra) <= 0, rb, rcOld), nil
	case isa.CMOVGT:
		return cmov(int64(ra) > 0, rb, rcOld), nil
	case isa.CMOVLBS:
		return cmov(ra&1 != 0, rb, rcOld), nil
	case isa.CMOVLBC:
		return cmov(ra&1 == 0, rb, rcOld), nil
	case isa.ADDT:
		return math.Float64bits(math.Float64frombits(ra) + math.Float64frombits(rb)), nil
	case isa.SUBT:
		return math.Float64bits(math.Float64frombits(ra) - math.Float64frombits(rb)), nil
	case isa.MULT:
		return math.Float64bits(math.Float64frombits(ra) * math.Float64frombits(rb)), nil
	case isa.DIVT:
		return math.Float64bits(math.Float64frombits(ra) / math.Float64frombits(rb)), nil
	}
	return 0, fmt.Errorf("unimplemented operate op %v", op)
}

func cmov(cond bool, rb, rcOld uint64) uint64 {
	if cond {
		return rb
	}
	return rcOld
}

// Run executes until HALT, an error, or max instructions, invoking fn (if
// non-nil) for every committed instruction. It returns the number of
// instructions executed. Exceeding max returns an error so runaway workloads
// are caught rather than silently truncated.
func (e *Emulator) Run(max int64, fn func(TraceEntry)) (int64, error) {
	start := e.seq
	var t TraceEntry
	for !e.halted {
		if e.seq-start >= max {
			return e.seq - start, fmt.Errorf("emu: exceeded %d instructions without halting", max)
		}
		if err := e.StepInto(&t); err != nil {
			return e.seq - start, err
		}
		if fn != nil {
			fn(t)
		}
	}
	return e.seq - start, nil
}

// Trace runs the program to completion (bounded by max) and collects the
// full committed trace.
func Trace(prog *isa.Program, max int64) ([]TraceEntry, error) {
	e := New(prog)
	trace := make([]TraceEntry, 0, 4096)
	_, err := e.Run(max, func(t TraceEntry) { trace = append(trace, t) })
	if err != nil {
		return nil, err
	}
	return trace, nil
}
