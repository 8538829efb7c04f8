package emu

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/rb"
)

func run(t *testing.T, src string) *Emulator {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, err := e.Run(1_000_000, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("read back %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("partial read %#x", got)
	}
	if got := m.Read(0x2000, 8); got != 0 {
		t.Errorf("unmapped read %#x", got)
	}
	// Cross-page write.
	m.Write(0xfff, 8, 0xdeadbeefcafef00d)
	if got := m.Read(0xfff, 8); got != 0xdeadbeefcafef00d {
		t.Errorf("cross-page read %#x", got)
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 into r2.
	e := run(t, `
        li   r1, 100
        clr  r2
loop:   addq r2, r1, r2
        subq r1, #1, r1
        bgt  r1, loop
        halt
`)
	if got := int64(e.Regs[2]); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestFibonacciMemory(t *testing.T) {
	// Compute fib(20) via a memory-resident table.
	e := run(t, `
        li   r10, 0x1000
        li   r1, 0
        li   r2, 1
        stq  r1, 0(r10)
        stq  r2, 8(r10)
        li   r3, 19        ; remaining iterations: (fib k, fib k+1) after k
loop:   ldq  r4, 0(r10)
        ldq  r5, 8(r10)
        addq r4, r5, r6
        stq  r5, 0(r10)
        stq  r6, 8(r10)
        subq r3, #1, r3
        bgt  r3, loop
        ldq  r7, 8(r10)
        halt
`)
	if got := e.Regs[7]; got != 6765 {
		t.Errorf("fib(20) = %d, want 6765", got)
	}
}

func TestByteAndLongwordAccess(t *testing.T) {
	e := run(t, `
        .data 0x2000
        .quad 0x1122334455667788
        li   r1, 0x2000
        ldbu r2, 0(r1)
        ldbu r3, 7(r1)
        ldl  r4, 4(r1)
        li   r5, -1
        stl  r5, 0(r1)
        ldq  r6, 0(r1)
        stb  r31, 7(r1)
        ldq  r7, 0(r1)
        halt
`)
	if e.Regs[2] != 0x88 || e.Regs[3] != 0x11 {
		t.Errorf("ldbu: %#x %#x", e.Regs[2], e.Regs[3])
	}
	if e.Regs[4] != 0x11223344 {
		t.Errorf("ldl positive: %#x", e.Regs[4])
	}
	if e.Regs[6] != 0x11223344ffffffff {
		t.Errorf("stl merge: %#x", e.Regs[6])
	}
	if e.Regs[7] != 0x00223344ffffffff {
		t.Errorf("stb clear: %#x", e.Regs[7])
	}
}

func TestLDLSignExtends(t *testing.T) {
	e := run(t, `
        .data 0x3000
        .long 0x80000000
        li  r1, 0x3000
        ldl r2, 0(r1)
        halt
`)
	if int64(e.Regs[2]) != -0x80000000 {
		t.Errorf("ldl sign extension: %#x", e.Regs[2])
	}
}

func TestConditionalMoves(t *testing.T) {
	e := run(t, `
        li r1, -5
        li r2, 111
        li r3, 222
        cmovlt r1, r2, r3   ; taken: r3 = 111
        li r4, 333
        cmovgt r1, r2, r4   ; not taken: r4 stays 333
        li r5, 3
        li r6, 444
        cmovlbs r5, #99, r6 ; odd: r6 = 99
        halt
`)
	if e.Regs[3] != 111 || e.Regs[4] != 333 || e.Regs[6] != 99 {
		t.Errorf("cmov results: %d %d %d", e.Regs[3], e.Regs[4], e.Regs[6])
	}
}

func TestCallReturn(t *testing.T) {
	e := run(t, `
        .entry main
double: addq r1, r1, r1
        ret  r31, (r26)
main:   li   r1, 21
        bsr  r26, double
        halt
`)
	if e.Regs[1] != 42 {
		t.Errorf("call/return result %d", e.Regs[1])
	}
}

func TestIndirectJump(t *testing.T) {
	e := run(t, `
        .entry main
main:   li   r1, 0
        li   r27, 4        ; index of target
        jsr  r26, (r27)
        halt
        li   r1, 7         ; index 4
        halt
`)
	if e.Regs[1] != 7 {
		t.Errorf("indirect jump result %d", e.Regs[1])
	}
	if e.Regs[26] != 3 {
		t.Errorf("return address %d, want 3", e.Regs[26])
	}
}

func TestZeroRegister(t *testing.T) {
	e := run(t, `
        li   r1, 5
        addq r1, #1, r31    ; write discarded
        addq r31, #3, r2    ; r31 reads 0
        halt
`)
	if e.Regs[31] != 0 || e.Regs[2] != 3 {
		t.Errorf("r31 handling: %d %d", e.Regs[31], e.Regs[2])
	}
}

func TestBranchFlavors(t *testing.T) {
	e := run(t, `
        li   r1, -1
        clr  r9
        blt  r1, a
        halt
a:      addq r9, #1, r9
        bge  r31, b
        halt
b:      addq r9, #1, r9
        li   r2, 2
        blbc r2, c
        halt
c:      addq r9, #1, r9
        beq  r31, d
        halt
d:      addq r9, #1, r9
        bne  r1, e
        halt
e:      addq r9, #1, r9
        ble  r31, f
        halt
f:      addq r9, #1, r9
        li   r3, 1
        bgt  r3, g
        halt
g:      addq r9, #1, r9
        blbs r3, h
        halt
h:      addq r9, #1, r9
        halt
`)
	if e.Regs[9] != 8 {
		t.Errorf("took %d of 8 branches", e.Regs[9])
	}
}

func TestTraceContents(t *testing.T) {
	p, err := asm.Assemble(`
        li   r1, 2
loop:   subq r1, #1, r1
        bne  r1, loop
        stq  r1, 0x100(r31)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Trace(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// li; subq; bne(taken); subq; bne(not taken); stq; halt
	if len(trace) != 7 {
		t.Fatalf("trace length %d: %v", len(trace), trace)
	}
	if !trace[2].Taken || trace[2].NextPC != 1 {
		t.Errorf("first bne: %+v", trace[2])
	}
	if trace[4].Taken {
		t.Errorf("second bne should fall through: %+v", trace[4])
	}
	if trace[5].EA != 0x100 {
		t.Errorf("store EA %#x", trace[5].EA)
	}
	for i, te := range trace {
		if te.Seq != int64(i) {
			t.Errorf("seq %d at index %d", te.Seq, i)
		}
	}
}

func TestRunawayProgramErrors(t *testing.T) {
	p, err := asm.Assemble("loop: br r31, loop")
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, err := e.Run(1000, nil); err == nil {
		t.Error("runaway loop did not error")
	}
}

func TestPCOutOfRangeErrors(t *testing.T) {
	p, err := asm.Assemble("br r31, .+5")
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if _, err := e.Run(10, nil); err == nil {
		t.Error("wild branch did not error")
	}
}

// The redundant binary datapath must agree with the 2's-complement golden
// model on every RB-executable operation: this is the correctness half of
// the paper's claim that these instructions can execute without converting
// their inputs.
func TestRBDatapathAgreesWithGoldenModel(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for i := 0; i < 3000; i++ {
		a, b := r.Uint64(), r.Uint64()
		ra, rbn := rb.FromUint(a), rb.FromUint(b)
		check := func(op isa.Op, got rb.Number) {
			want, err := evalOperate(op, a, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint() != want {
				t.Fatalf("%v(%#x, %#x): RB %#x, TC %#x", op, a, b, got.Uint(), want)
			}
		}
		sum, _ := rb.Add(ra, rbn)
		check(isa.ADDQ, sum)
		diff, _ := rb.Sub(ra, rbn)
		check(isa.SUBQ, diff)
		s4, _ := rb.ScaledAdd(ra, 2, rbn)
		check(isa.S4ADDQ, s4)
		s8, _ := rb.ScaledAdd(ra, 3, rbn)
		check(isa.S8ADDQ, s8)
		s4s, _ := rb.ScaledSub(ra, 2, rbn)
		check(isa.S4SUBQ, s4s)
		s8s, _ := rb.ScaledSub(ra, 3, rbn)
		check(isa.S8SUBQ, s8s)
		check(isa.SLL, ra.ShiftLeft(uint(b&63)))
		suml, _ := rb.Add(ra, rbn)
		check(isa.ADDL, suml.Longword())
		if i < 200 { // multiplies are slower
			check(isa.MULQ, rb.Mul(ra, rbn))
		}
		// Sign and zero tests drive CMOVs and branches.
		if (ra.Sign() < 0) != (int64(a) < 0) {
			t.Fatalf("sign test mismatch for %#x", a)
		}
		if ra.IsZero() != (a == 0) {
			t.Fatalf("zero test mismatch for %#x", a)
		}
		if ra.LSB() != (a&1 != 0) {
			t.Fatalf("lsb test mismatch for %#x", a)
		}
	}
}

// Exhaustive operate-semantics table: every ALU op checked against direct
// Go expressions on boundary-ish values.
func TestEvalOperateSemantics(t *testing.T) {
	a := uint64(0xF123456789ABCDEF)
	b := uint64(0x0000000000000025) // 37
	fa := math.Float64bits(2.5)
	fb := math.Float64bits(-0.5)
	cases := []struct {
		op     isa.Op
		ra, rb uint64
		rcOld  uint64
		want   uint64
	}{
		{isa.ADDQ, a, b, 0, a + b},
		{isa.ADDL, a, b, 0, uint64(int64(int32(uint32(a + b))))},
		{isa.SUBQ, a, b, 0, a - b},
		{isa.SUBL, a, b, 0, uint64(int64(int32(uint32(a - b))))},
		{isa.S4ADDQ, a, b, 0, a*4 + b},
		{isa.S8ADDQ, a, b, 0, a*8 + b},
		{isa.S4SUBQ, a, b, 0, a*4 - b},
		{isa.S8SUBQ, a, b, 0, a*8 - b},
		{isa.MULQ, a, b, 0, a * b},
		{isa.MULL, a, b, 0, uint64(int64(int32(uint32(a * b))))},
		{isa.SLL, a, 4, 0, a << 4},
		{isa.SLL, a, 68, 0, a << 4}, // shift amounts mask to 6 bits
		{isa.SRL, a, 4, 0, a >> 4},
		{isa.SRA, a, 4, 0, uint64(int64(a) >> 4)},
		{isa.AND, a, b, 0, a & b},
		{isa.BIS, a, b, 0, a | b},
		{isa.XOR, a, b, 0, a ^ b},
		{isa.BIC, a, b, 0, a &^ b},
		{isa.ORNOT, a, b, 0, a | ^b},
		{isa.EQV, a, b, 0, a ^ ^b},
		{isa.CTLZ, 0, b, 0, 58},
		{isa.CTLZ, 0, 0, 0, 64},
		{isa.CTTZ, 0, 48, 0, 4},
		{isa.CTTZ, 0, 0, 0, 64},
		{isa.CTPOP, 0, 0xFF00FF, 0, 16},
		{isa.EXTBL, a, 2, 0, a >> 16 & 0xff},
		{isa.INSBL, 0xAB, 3, 0, 0xAB << 24},
		{isa.MSKBL, a, 1, 0, a &^ (0xff << 8)},
		{isa.ZAPNOT, a, 0b00001111, 0, a & 0xFFFFFFFF},
		{isa.SEXTB, 0, 0x80, 0, ^uint64(127)},
		{isa.SEXTW, 0, 0x8000, 0, ^uint64(32767)},
		{isa.CMPEQ, 5, 5, 0, 1},
		{isa.CMPEQ, 5, 6, 0, 0},
		{isa.CMPLT, a, b, 0, 1}, // a is negative signed
		{isa.CMPLE, 5, 5, 0, 1},
		{isa.CMPULT, a, b, 0, 0}, // a is huge unsigned
		{isa.CMPULE, b, b, 0, 1},
		{isa.CMOVEQ, 0, 7, 9, 7},
		{isa.CMOVEQ, 1, 7, 9, 9},
		{isa.CMOVNE, 1, 7, 9, 7},
		{isa.CMOVLT, a, 7, 9, 7},
		{isa.CMOVGE, a, 7, 9, 9},
		{isa.CMOVLE, 0, 7, 9, 7},
		{isa.CMOVGT, 0, 7, 9, 9},
		{isa.CMOVLBS, 3, 7, 9, 7},
		{isa.CMOVLBC, 3, 7, 9, 9},
		{isa.ADDT, fa, fb, 0, math.Float64bits(2.0)},
		{isa.SUBT, fa, fb, 0, math.Float64bits(3.0)},
		{isa.MULT, fa, fb, 0, math.Float64bits(-1.25)},
		{isa.DIVT, fa, fb, 0, math.Float64bits(-5.0)},
	}
	for _, c := range cases {
		got, err := evalOperate(c.op, c.ra, c.rb, c.rcOld)
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if got != c.want {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", c.op, c.ra, c.rb, got, c.want)
		}
	}
}

func TestEmulatorAccessors(t *testing.T) {
	p, err := asm.Assemble("li r1, 2\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	if e.Halted() || e.InstCount() != 0 {
		t.Error("fresh emulator state wrong")
	}
	if _, err := e.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	if !e.Halted() || e.InstCount() != 2 {
		t.Errorf("post-run state: halted=%v count=%d", e.Halted(), e.InstCount())
	}
	if _, err := e.Step(); err == nil {
		t.Error("stepping a halted emulator did not error")
	}
	if e.Mem.FootprintBytes() < 0 {
		t.Error("footprint negative")
	}
}

func TestEvalOperateRejectsNonOperate(t *testing.T) {
	if _, err := evalOperate(isa.LDQ, 0, 0, 0); err == nil {
		t.Error("evalOperate accepted a load")
	}
}

// TestForkIsolatesMemory: a fork starts with its parent's registers, PC and
// memory, and from then on neither sees the other's stores.
func TestForkIsolatesMemory(t *testing.T) {
	p, err := asm.Assemble(`
        li  r1, 0x2000
        li  r2, 11
        stq r2, 0(r1)
        li  r3, 22
        stq r3, 0(r1)
        stq r3, 8(r1)
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(p)
	for i := 0; i < 3; i++ { // through the first store
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	f := e.Fork()
	if f.PC != e.PC || f.Regs != e.Regs || f.InstCount() != e.InstCount() || f.Program() != p {
		t.Fatalf("fork state %d/%v differs from parent %d/%v", f.PC, f.Regs, e.PC, e.Regs)
	}
	if got := f.Mem.Read(0x2000, 8); got != 11 {
		t.Fatalf("fork reads %d before any store, want the parent's 11", got)
	}
	f.Mem.Write(0x2000, 8, 99)
	f.Mem.Write(0x3000, 8, 98)
	if got := e.Mem.Read(0x2000, 8); got != 11 {
		t.Errorf("parent sees the fork's store: %d", got)
	}
	if got := e.Mem.Read(0x3000, 8); got != 0 {
		t.Errorf("parent sees the fork's store to a new page: %d", got)
	}
	if _, err := e.Run(100, nil); err != nil { // the parent's later stores
		t.Fatal(err)
	}
	if got := e.Mem.Read(0x2008, 8); got != 22 {
		t.Fatalf("parent stored %d, want 22", got)
	}
	if got := f.Mem.Read(0x2000, 8); got != 99 {
		t.Errorf("fork sees the parent's later store: %d, want its own 99", got)
	}
	if got := f.Mem.Read(0x2008, 8); got != 0 {
		t.Errorf("fork sees the parent's later store: %d, want 0", got)
	}
	if f.Halted() || f.Regs[3] != 0 {
		t.Errorf("fork follows the parent's later execution: halted=%v r3=%d", f.Halted(), f.Regs[3])
	}
}
