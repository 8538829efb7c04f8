package check

// The ops layer: a per-opcode equivalence table for the functional emulator.
//
// Every opcode in internal/isa has a row in exactly one of the tables below,
// pairing it with an independently written golden semantic: a result
// function for operates, a taken-predicate for conditional branches, or a
// whole-program behavioral check for memory and control flow. The coverage
// check closes the loop: an opcode added to the ISA without a row here
// fails checkOpCoverage, and a row the emulator does not execute fails its
// table's check, in rbcheck -quick and in go test (TestArithmeticLayersPass).

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/emu"
	"repro/internal/isa"
)

// operateSpec pairs an operate opcode with golden result semantics.
// rcOld is the previous destination value (read by conditional moves).
type operateSpec struct {
	op   isa.Op
	eval func(ra, rb, rcOld uint64) uint64
}

// sx32 sign-extends the low 32 bits, sx16 and sx8 the low halves — written
// via shifts rather than the emulator's chained integer conversions so the
// two implementations do not share a bug.
func sx32(v uint64) uint64 { return uint64(int64(v<<32) >> 32) }
func sx16(v uint64) uint64 { return uint64(int64(v<<48) >> 48) }
func sx8(v uint64) uint64  { return uint64(int64(v<<56) >> 56) }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func pickOld(cond bool, rb, rcOld uint64) uint64 {
	if cond {
		return rb
	}
	return rcOld
}

func fp(f func(a, b float64) float64) func(ra, rb, rcOld uint64) uint64 {
	return func(ra, rb, _ uint64) uint64 {
		return math.Float64bits(f(math.Float64frombits(ra), math.Float64frombits(rb)))
	}
}

// operateSpecs covers every three-operand (or one-input) operate opcode.
var operateSpecs = []operateSpec{
	{isa.ADDQ, func(a, b, _ uint64) uint64 { return a + b }},
	{isa.ADDL, func(a, b, _ uint64) uint64 { return sx32(a + b) }},
	{isa.SUBQ, func(a, b, _ uint64) uint64 { return a - b }},
	{isa.SUBL, func(a, b, _ uint64) uint64 { return sx32(a - b) }},
	{isa.S4ADDQ, func(a, b, _ uint64) uint64 { return a<<2 + b }},
	{isa.S8ADDQ, func(a, b, _ uint64) uint64 { return a<<3 + b }},
	{isa.S4SUBQ, func(a, b, _ uint64) uint64 { return a<<2 - b }},
	{isa.S8SUBQ, func(a, b, _ uint64) uint64 { return a<<3 - b }},
	{isa.MULQ, func(a, b, _ uint64) uint64 { return a * b }},
	{isa.MULL, func(a, b, _ uint64) uint64 { return sx32(a * b) }},
	{isa.SLL, func(a, b, _ uint64) uint64 { return a << (b & 63) }},
	{isa.SRL, func(a, b, _ uint64) uint64 { return a >> (b & 63) }},
	{isa.SRA, func(a, b, _ uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	{isa.AND, func(a, b, _ uint64) uint64 { return a & b }},
	{isa.BIS, func(a, b, _ uint64) uint64 { return a | b }},
	{isa.XOR, func(a, b, _ uint64) uint64 { return a ^ b }},
	{isa.BIC, func(a, b, _ uint64) uint64 { return a & ^b }},
	{isa.ORNOT, func(a, b, _ uint64) uint64 { return a | ^b }},
	{isa.EQV, func(a, b, _ uint64) uint64 { return ^(a ^ b) }},
	{isa.CTLZ, func(_, b, _ uint64) uint64 { return uint64(64 - bits.Len64(b)) }},
	// Trailing zeros as the popcount of the borrow ripple below the lowest
	// set bit; for b == 0 the expression is all-ones, giving 64.
	{isa.CTTZ, func(_, b, _ uint64) uint64 { return uint64(bits.OnesCount64(^b & (b - 1))) }},
	{isa.CTPOP, func(_, b, _ uint64) uint64 { return uint64(bits.OnesCount64(b)) }},
	{isa.EXTBL, func(a, b, _ uint64) uint64 { return uint64(uint8(a >> (8 * (b & 7)))) }},
	{isa.INSBL, func(a, b, _ uint64) uint64 { return uint64(uint8(a)) << (8 * (b & 7)) }},
	{isa.MSKBL, func(a, b, _ uint64) uint64 { return a & ^(uint64(0xff) << (8 * (b & 7))) }},
	{isa.ZAPNOT, func(a, b, _ uint64) uint64 {
		var v uint64
		for i := uint(0); i < 8; i++ {
			if b&(1<<i) != 0 {
				v |= a & (0xff << (8 * i))
			}
		}
		return v
	}},
	{isa.SEXTB, func(_, b, _ uint64) uint64 { return sx8(b) }},
	{isa.SEXTW, func(_, b, _ uint64) uint64 { return sx16(b) }},
	{isa.CMPEQ, func(a, b, _ uint64) uint64 { return boolBit(a == b) }},
	{isa.CMPLT, func(a, b, _ uint64) uint64 { return boolBit(int64(a) < int64(b)) }},
	{isa.CMPLE, func(a, b, _ uint64) uint64 { return boolBit(int64(a) <= int64(b)) }},
	{isa.CMPULT, func(a, b, _ uint64) uint64 { return boolBit(a < b) }},
	{isa.CMPULE, func(a, b, _ uint64) uint64 { return boolBit(a <= b) }},
	{isa.CMOVEQ, func(a, b, old uint64) uint64 { return pickOld(a == 0, b, old) }},
	{isa.CMOVNE, func(a, b, old uint64) uint64 { return pickOld(a != 0, b, old) }},
	{isa.CMOVLT, func(a, b, old uint64) uint64 { return pickOld(int64(a) < 0, b, old) }},
	{isa.CMOVGE, func(a, b, old uint64) uint64 { return pickOld(int64(a) >= 0, b, old) }},
	{isa.CMOVLE, func(a, b, old uint64) uint64 { return pickOld(int64(a) <= 0, b, old) }},
	{isa.CMOVGT, func(a, b, old uint64) uint64 { return pickOld(int64(a) > 0, b, old) }},
	{isa.CMOVLBS, func(a, b, old uint64) uint64 { return pickOld(a&1 == 1, b, old) }},
	{isa.CMOVLBC, func(a, b, old uint64) uint64 { return pickOld(a&1 == 0, b, old) }},
	{isa.ADDT, fp(func(a, b float64) float64 { return a + b })},
	{isa.SUBT, fp(func(a, b float64) float64 { return a - b })},
	{isa.MULT, fp(func(a, b float64) float64 { return a * b })},
	{isa.DIVT, fp(func(a, b float64) float64 { return a / b })},
}

// branchSpec pairs a conditional branch opcode with its taken predicate.
type branchSpec struct {
	op    isa.Op
	taken func(v uint64) bool
}

var branchSpecs = []branchSpec{
	{isa.BEQ, func(v uint64) bool { return v == 0 }},
	{isa.BNE, func(v uint64) bool { return v != 0 }},
	{isa.BLT, func(v uint64) bool { return v&(1<<63) != 0 }},
	{isa.BGE, func(v uint64) bool { return v&(1<<63) == 0 }},
	{isa.BLE, func(v uint64) bool { return v == 0 || v&(1<<63) != 0 }},
	{isa.BGT, func(v uint64) bool { return v != 0 && v&(1<<63) == 0 }},
	{isa.BLBC, func(v uint64) bool { return v&1 == 0 }},
	{isa.BLBS, func(v uint64) bool { return v&1 == 1 }},
}

// progSpec checks an opcode whose semantics are behavioral — address
// formation, memory access, control transfer, halting — by running a small
// program on the emulator and asserting the architectural outcome. kind
// names the structural class the opcode must carry in isa's tables.
type progSpec struct {
	op    isa.Op
	kind  string // "addr", "load", "store", "uncond", "indirect", "halt"
	check func() (trials int64, err error)
}

// stepOne runs exactly one instruction of a fresh emulator for prog after
// applying setup to architectural state.
func stepOne(prog *isa.Program, setup func(*emu.Emulator)) (*emu.Emulator, emu.TraceEntry, error) {
	e := emu.New(prog)
	if setup != nil {
		setup(e)
	}
	t, err := e.Step()
	return e, t, err
}

// addrCases are (base, displacement) pairs for address-forming opcodes,
// mixing boundary bases with positive and negative displacements.
func addrCases() (bases []uint64, disps []int64) {
	return BoundaryOperands, []int64{0, 1, -1, 8, -8, 0x7fff, -0x8000}
}

func checkLDA(scale uint64) func() (int64, error) {
	return func() (int64, error) {
		var trials int64
		bases, disps := addrCases()
		op := isa.LDA
		if scale != 1 {
			op = isa.LDAH
		}
		for _, base := range bases {
			for _, d := range disps {
				prog := &isa.Program{Insts: []isa.Instruction{
					{Op: op, Ra: 1, Rb: 2, Imm: d},
					{Op: isa.HALT},
				}}
				e, t, err := stepOne(prog, func(e *emu.Emulator) { e.Regs[2] = base })
				if err != nil {
					return trials, err
				}
				want := base + uint64(d)*scale
				if e.Regs[1] != want || !t.HasResult {
					return trials, fmt.Errorf("%v base=%#x disp=%d: got %#x, want %#x", op, base, d, e.Regs[1], want)
				}
				trials++
			}
		}
		return trials, nil
	}
}

// loadGolden computes what a load of the given width must return from a
// memory image holding val at the effective address.
func loadGolden(op isa.Op, val uint64) uint64 {
	switch op {
	case isa.LDQ:
		return val
	case isa.LDL:
		return sx32(val)
	case isa.LDBU:
		return val & 0xff
	}
	panic("not a load: " + op.String())
}

func checkLoad(op isa.Op) func() (int64, error) {
	return func() (int64, error) {
		var trials int64
		const base, disp = 0x8000, 16
		for _, val := range BoundaryOperands {
			prog := &isa.Program{Insts: []isa.Instruction{
				{Op: op, Ra: 1, Rb: 2, Imm: disp},
				{Op: isa.HALT},
			}}
			e, t, err := stepOne(prog, func(e *emu.Emulator) {
				e.Regs[2] = base
				e.Mem.Write(base+disp, 8, val)
			})
			if err != nil {
				return trials, err
			}
			want := loadGolden(op, val)
			if e.Regs[1] != want {
				return trials, fmt.Errorf("%v of %#x: got %#x, want %#x", op, val, e.Regs[1], want)
			}
			if t.EA != base+disp {
				return trials, fmt.Errorf("%v: EA %#x, want %#x", op, t.EA, base+disp)
			}
			trials++
		}
		return trials, nil
	}
}

// storeWidth is the byte width a store writes; bytes beyond it must be
// untouched.
func storeWidth(op isa.Op) uint64 {
	switch op {
	case isa.STQ:
		return 8
	case isa.STL:
		return 4
	case isa.STB:
		return 1
	}
	panic("not a store: " + op.String())
}

func checkStore(op isa.Op) func() (int64, error) {
	return func() (int64, error) {
		var trials int64
		const base, disp = 0x8000, 24
		w := storeWidth(op)
		for _, val := range BoundaryOperands {
			prog := &isa.Program{Insts: []isa.Instruction{
				{Op: op, Ra: 1, Rb: 2, Imm: disp},
				{Op: isa.HALT},
			}}
			e, t, err := stepOne(prog, func(e *emu.Emulator) {
				e.Regs[1] = val
				e.Regs[2] = base
				// Pre-fill so partial-width stores reveal clobbered bytes.
				e.Mem.Write(base+disp, 8, 0xEEEEEEEEEEEEEEEE)
			})
			if err != nil {
				return trials, err
			}
			got := e.Mem.Read(base+disp, 8)
			var want uint64 = 0xEEEEEEEEEEEEEEEE
			for i := uint64(0); i < w; i++ {
				want = want & ^(uint64(0xff)<<(8*i)) | val&(0xff<<(8*i))
			}
			if got != want {
				return trials, fmt.Errorf("%v of %#x: memory %#x, want %#x", op, val, got, want)
			}
			if t.EA != base+disp {
				return trials, fmt.Errorf("%v: EA %#x, want %#x", op, t.EA, base+disp)
			}
			trials++
		}
		return trials, nil
	}
}

func checkUncond(op isa.Op) func() (int64, error) {
	return func() (int64, error) {
		prog := &isa.Program{Insts: []isa.Instruction{
			{Op: op, Ra: 1, Imm: 2},
			{Op: isa.HALT}, {Op: isa.HALT}, {Op: isa.HALT},
		}}
		e, t, err := stepOne(prog, nil)
		if err != nil {
			return 0, err
		}
		if !t.Taken || t.NextPC != 3 {
			return 0, fmt.Errorf("%v: NextPC %d taken=%v, want 3 taken", op, t.NextPC, t.Taken)
		}
		if e.Regs[1] != 1 {
			return 0, fmt.Errorf("%v: return address %#x, want 1", op, e.Regs[1])
		}
		return 1, nil
	}
}

func checkIndirect(op isa.Op) func() (int64, error) {
	return func() (int64, error) {
		prog := &isa.Program{Insts: []isa.Instruction{
			{Op: op, Ra: 1, Rb: 2},
			{Op: isa.HALT}, {Op: isa.HALT}, {Op: isa.HALT},
		}}
		e, t, err := stepOne(prog, func(e *emu.Emulator) { e.Regs[2] = 3 })
		if err != nil {
			return 0, err
		}
		if !t.Taken || t.NextPC != 3 {
			return 0, fmt.Errorf("%v: NextPC %d taken=%v, want 3 taken", op, t.NextPC, t.Taken)
		}
		if e.Regs[1] != 1 {
			return 0, fmt.Errorf("%v: return address %#x, want 1", op, e.Regs[1])
		}
		return 1, nil
	}
}

func checkHalt() (int64, error) {
	prog := &isa.Program{Insts: []isa.Instruction{{Op: isa.HALT}}}
	e, t, err := stepOne(prog, nil)
	if err != nil {
		return 0, err
	}
	if !e.Halted() {
		return 0, fmt.Errorf("HALT: emulator not halted")
	}
	if t.HasResult {
		return 0, fmt.Errorf("HALT: unexpected register result")
	}
	return 1, nil
}

var progSpecs = []progSpec{
	{isa.LDA, "addr", checkLDA(1)},
	{isa.LDAH, "addr", checkLDA(65536)},
	{isa.LDQ, "load", checkLoad(isa.LDQ)},
	{isa.LDL, "load", checkLoad(isa.LDL)},
	{isa.LDBU, "load", checkLoad(isa.LDBU)},
	{isa.STQ, "store", checkStore(isa.STQ)},
	{isa.STL, "store", checkStore(isa.STL)},
	{isa.STB, "store", checkStore(isa.STB)},
	{isa.BR, "uncond", checkUncond(isa.BR)},
	{isa.BSR, "uncond", checkUncond(isa.BSR)},
	{isa.JMP, "indirect", checkIndirect(isa.JMP)},
	{isa.JSR, "indirect", checkIndirect(isa.JSR)},
	{isa.RET, "indirect", checkIndirect(isa.RET)},
	{isa.HALT, "halt", checkHalt},
}

// Ops runs the per-opcode equivalence layer.
func Ops(opts Options) []Report {
	return []Report{
		run("ops", "operate semantics vs table", func() (int64, string, error) {
			t, err := checkOperates(opts)
			return t, fmt.Sprintf("%d operate opcodes", len(operateSpecs)), err
		}),
		run("ops", "branch taken-predicates vs table", func() (int64, string, error) {
			t, err := checkBranches()
			return t, fmt.Sprintf("%d branch opcodes", len(branchSpecs)), err
		}),
		run("ops", "memory/control behavior vs table", func() (int64, string, error) {
			var trials int64
			for _, s := range progSpecs {
				t, err := s.check()
				trials += t
				if err != nil {
					return trials, "", err
				}
			}
			return trials, fmt.Sprintf("%d behavioral opcodes", len(progSpecs)), nil
		}),
		run("ops", "opcode coverage and classes", func() (int64, string, error) {
			return checkOpCoverage()
		}),
	}
}

// checkOperates single-steps every operate row on the emulator over the
// boundary corpus crossed with itself plus randomized trials.
func checkOperates(opts Options) (int64, error) {
	rng := opts.rng("ops-operates")
	extra := opts.pick(64, 4096)
	var trials int64
	for _, s := range operateSpecs {
		e := emu.New(&isa.Program{Insts: []isa.Instruction{{Op: s.op, Ra: 1, Rb: 2, Rc: 3}}})
		try := func(ra, rb, old uint64) error {
			e.PC, e.Regs[1], e.Regs[2], e.Regs[3] = 0, ra, rb, old
			te, err := e.Step()
			if err != nil {
				return fmt.Errorf("%v: %v", s.op, err)
			}
			got, want := te.Result, s.eval(ra, rb, old)
			if got != want {
				return fmt.Errorf("%v ra=%#x rb=%#x old=%#x: emulator %#x, table %#x",
					s.op, ra, rb, old, got, want)
			}
			trials++
			return nil
		}
		for _, ra := range BoundaryOperands {
			for _, rb := range BoundaryOperands {
				if err := try(ra, rb, 0xDEADBEEF); err != nil {
					return trials, err
				}
			}
		}
		for i := 0; i < extra; i++ {
			if err := try(rng.Uint64(), rng.Uint64(), rng.Uint64()); err != nil {
				return trials, err
			}
		}
	}
	return trials, nil
}

// checkBranches single-steps each conditional branch against its predicate
// over the boundary corpus, verifying both the taken flag and the target.
func checkBranches() (int64, error) {
	var trials int64
	for _, s := range branchSpecs {
		for _, v := range BoundaryOperands {
			prog := &isa.Program{Insts: []isa.Instruction{
				{Op: s.op, Ra: 1, Imm: 1},
				{Op: isa.HALT}, {Op: isa.HALT},
			}}
			_, t, err := stepOne(prog, func(e *emu.Emulator) { e.Regs[1] = v })
			if err != nil {
				return trials, err
			}
			want := s.taken(v)
			wantPC := 1
			if want {
				wantPC = 2
			}
			if t.Taken != want || t.NextPC != wantPC {
				return trials, fmt.Errorf("%v on %#x: taken=%v next=%d, want taken=%v next=%d",
					s.op, v, t.Taken, t.NextPC, want, wantPC)
			}
			trials++
		}
	}
	return trials, nil
}

// checkOpCoverage asserts the tables partition the opcode space: every
// defined opcode appears in exactly one table, its isa classification agrees
// with the table it sits in, and its mnemonic round-trips.
func checkOpCoverage() (int64, string, error) {
	return opCoverage(operateSpecs, branchSpecs, progSpecs)
}

// opCoverage is checkOpCoverage over the given tables.
func opCoverage(operate []operateSpec, branch []branchSpec, prog []progSpec) (int64, string, error) {
	where := make(map[isa.Op]string, isa.NumOps)
	note := func(op isa.Op, table string) error {
		if prev, dup := where[op]; dup {
			return fmt.Errorf("opcode %v in both %s and %s tables", op, prev, table)
		}
		where[op] = table
		return nil
	}
	for _, s := range operate {
		if err := note(s.op, "operate"); err != nil {
			return 0, "", err
		}
		c := isa.ClassOf(s.op)
		if c.IsBranch() || c.IsMemory() || c.Out == isa.FormatNone {
			return 0, "", fmt.Errorf("opcode %v is in the operate table but classified %+v", s.op, c)
		}
	}
	for _, s := range branch {
		if err := note(s.op, "branch"); err != nil {
			return 0, "", err
		}
		if !isa.ClassOf(s.op).IsCondBranch {
			return 0, "", fmt.Errorf("opcode %v is in the branch table but not IsCondBranch", s.op)
		}
	}
	for _, s := range prog {
		if err := note(s.op, "behavioral"); err != nil {
			return 0, "", err
		}
		c := isa.ClassOf(s.op)
		ok := false
		switch s.kind {
		case "addr":
			ok = !c.IsMemory() && !c.IsBranch() && c.Out == isa.FormatRB
		case "load":
			ok = c.IsLoad
		case "store":
			ok = c.IsStore
		case "uncond":
			ok = c.IsUncondBranch && !c.IsIndirect
		case "indirect":
			ok = c.IsIndirect
		case "halt":
			ok = c.Out == isa.FormatNone && !c.IsBranch() && !c.IsMemory()
		}
		if !ok {
			return 0, "", fmt.Errorf("opcode %v is in the behavioral table as %q but classified %+v", s.op, s.kind, c)
		}
	}
	var trials int64
	for i := 1; i < isa.NumOps; i++ {
		op := isa.Op(i)
		if _, covered := where[op]; !covered {
			return trials, "", fmt.Errorf("opcode %v has no equivalence-table row", op)
		}
		back, found := isa.OpByName(op.String())
		if !found || back != op {
			return trials, "", fmt.Errorf("opcode %v mnemonic %q does not round-trip", op, op.String())
		}
		trials++
	}
	return trials, fmt.Sprintf("%d opcodes covered", trials), nil
}
