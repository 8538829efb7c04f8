package core

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
)

// The decode is the timing trace: everything the pipeline model reads about
// a committed instruction, as columns. Per entry it holds the register
// producers and which of them must arrive in 2's complement (Table 1 In=TC,
// or store data), the older store it must follow, the effective Table 1
// formats with the §3.6 MOV exception applied, the latency class, the
// structural and branch-kind flags and the branch outcome (one op word), and
// the PC; a load or store also has its effective address, in a side array
// indexed by memory-op ordinal. The next PC is the next entry's PC, so only
// the last entry's is kept. A run reads nothing else: the result values,
// the full instruction and the sequence number stay in the emulator, and
// the run modes that need them step one of their own (Options).
//
// The experiment matrix simulates every machine over the same traces, so the
// harness builds each workload's decode once, streaming it from the
// emulator without materializing the full trace (workload.Decoded), and
// every cell reads the shared, immutable result. A run that decodes its own
// stream (a sampled window, Buffers.Run) does so into its Buffers
// (Buffers.Decode). Both go through Decoder.Add, so there is one decode.

// opWord packs an entry's per-instruction facts into 32 bits:
//
//	[1:0] effective In format   [3:2] effective Out format
//	[7:4] latency class         [9:8] register source count
//	[10] load  [11] store  [12] writes a register
//	[15:13] front-end branch kind (branch.KindOf)
//	[16] taken: the trace's branch outcome
type opWord uint32

const (
	opOutShift  = 2
	opLatShift  = 4
	opNsrcShift = 8
	opKindShift = 13

	opLoad  opWord = 1 << 10
	opStore opWord = 1 << 11
	opDest  opWord = 1 << 12
	opTaken opWord = 1 << 16
)

// The latency class must fit its four bits, and the branch kind its three.
var (
	_ [16 - int(isa.NumLatencyClasses)]struct{}
	_ [8 - branch.NumKinds]struct{}
)

// classOp packs a classification (and a source count) into an op word.
func classOp(c isa.Class, nsrc int) opWord {
	w := opWord(c.In) | opWord(c.Out)<<opOutShift | opWord(c.Latency)<<opLatShift | opWord(nsrc)<<opNsrcShift
	if c.IsLoad {
		w |= opLoad
	}
	if c.IsStore {
		w |= opStore
	}
	return w
}

func (w opWord) in() isa.Format            { return isa.Format(w & 3) }
func (w opWord) out() isa.Format           { return isa.Format(w >> opOutShift & 3) }
func (w opWord) latency() isa.LatencyClass { return isa.LatencyClass(w >> opLatShift & 15) }
func (w opWord) nsrc() int8                { return int8(w >> opNsrcShift & 3) }
func (w opWord) kind() branch.Kind         { return branch.Kind(w >> opKindShift & 7) }
func (w opWord) has(flag opWord) bool      { return w&flag != 0 }

// opInstMask selects the op word bits read from the instruction alone:
// everything but the source count and the branch outcome.
const opInstMask = ^(3<<opNsrcShift | opTaken)

// instOp is the op word of instruction in under opInstMask.
func instOp(in *isa.Instruction) opWord {
	w := classOp(in.EffectiveClass(), 0) | opWord(branch.KindOf(in.Op))<<opKindShift
	if _, ok := in.Dest(); ok {
		w |= opDest
	}
	return w
}

// depMem is the slot of an entry's dependence record that holds its memory
// dependence; slots 0..nsrc-1 hold its register producers as
// traceIndex<<1 | tc, where tc marks an operand that needs the producer's
// 2's-complement schedule. Unused slots, and a missing memory dependence,
// are -1.
const depMem = 3

// srcIndex and srcTC unpack a producer slot.
func srcIndex(p int32) int32 { return p >> 1 }
func srcTC(p int32) bool     { return p&1 != 0 }

// Decoded is the timing trace of one committed instruction stream (see
// Decoder). It is immutable once built and safe for any number of
// concurrent runs to share.
type Decoded struct {
	deps [][4]int32
	ops  []opWord
	pc   []int32
	ea   []uint64 // one per load or store, in trace order
	// lastNextPC is the last entry's next PC; every other entry's is the
	// PC of the entry after it.
	lastNextPC int32
	// table1 is the trace's dynamic Table 1 mix (by opcode class, as the
	// paper tabulates it — the MOV exception is a scheduling refinement).
	table1 [isa.NumTable1Rows]int64
	// err is the first reason the stream is not a committed instruction
	// stream the columns can represent; New refuses such a decode.
	err error
}

// Len is the number of trace entries decoded.
func (d *Decoded) Len() int { return len(d.ops) }

// Table1 is the trace's dynamic Table 1 mix: entry counts by Table 1 row.
func (d *Decoded) Table1() [isa.NumTable1Rows]int64 { return d.table1 }

// Bytes is the memory the decode holds, for cost-bounded caches.
func (d *Decoded) Bytes() int64 {
	return int64(unsafe.Sizeof(*d)) +
		int64(cap(d.deps))*int64(unsafe.Sizeof([4]int32{})) +
		int64(cap(d.ops))*int64(unsafe.Sizeof(opWord(0))) +
		int64(cap(d.pc))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(d.ea))*int64(unsafe.Sizeof(uint64(0)))
}

// nextPC is entry i's next PC.
func (d *Decoded) nextPC(i int32) int {
	if int(i)+1 < len(d.pc) {
		return int(d.pc[i+1])
	}
	return int(d.lastNextPC)
}

// Decoder builds a Decoded, for New, one committed entry at a time in trace
// order — from emu.Emulator.Run's per-entry callback, so that
// building a timing trace never holds the full one. Memory dependences are
// always decoded; a run whose machine does not model them ignores them.
// The zero value is ready to use.
type Decoder struct {
	d Decoded
	// lastWriter is the most recent producer of each register; lastStore
	// the most recent store to each quadword (computed from the trace's
	// exact effective addresses; real hardware would discover the same
	// orderings in its load/store queue). -1 or absent: none.
	lastWriter [isa.NumRegs]int32
	lastStore  map[uint64]int32
	started    bool
}

// reset empties b for a stream of about n entries, reusing its arrays.
func (b *Decoder) reset(n int) {
	d := &b.d
	d.deps = grown(d.deps, n)[:0]
	d.ops = grown(d.ops, n)[:0]
	d.pc = grown(d.pc, n)[:0]
	d.ea = d.ea[:0]
	d.lastNextPC = 0
	d.table1 = [isa.NumTable1Rows]int64{}
	d.err = nil
	for i := range b.lastWriter {
		b.lastWriter[i] = -1
	}
	if b.lastStore == nil {
		b.lastStore = make(map[uint64]int32)
	}
	clear(b.lastStore)
	b.started = true
}

// Add decodes the next committed entry.
func (b *Decoder) Add(te *emu.TraceEntry) {
	if !b.started {
		b.reset(0)
	}
	d := &b.d
	i := int32(len(d.ops))
	if d.err == nil {
		switch {
		case i > 0 && te.PC != int(d.lastNextPC):
			d.err = fmt.Errorf("core: trace entry %d is at pc %d, but entry %d's next pc is %d: not a committed instruction stream",
				i, te.PC, i-1, d.lastNextPC)
		case te.PC < 0 || te.PC > math.MaxInt32 || te.NextPC < 0 || te.NextPC > math.MaxInt32:
			d.err = fmt.Errorf("core: trace entry %d: pc %d or next pc %d out of range", i, te.PC, te.NextPC)
		}
	}
	in := &te.Inst
	d.table1[isa.ClassOf(in.Op).Row]++
	cls := in.EffectiveClass()
	dep := [4]int32{-1, -1, -1, -1}
	k := 0
	var regs [4]isa.Reg
	for si, r := range in.Srcs(regs[:0]) {
		p := b.lastWriter[r]
		if p < 0 {
			continue // initial register state: always ready
		}
		// An operand needs the TC schedule when the consuming unit requires
		// 2's complement (Table 1 In=TC) or it is store data (Table 3: "3
		// for stores").
		dep[k] = p << 1
		if cls.In == isa.FormatTC || (cls.IsStore && si == 0) {
			dep[k] |= 1
		}
		k++
	}
	op := instOp(in) | opWord(k)<<opNsrcShift
	if te.Taken {
		op |= opTaken
	}
	if cls.IsMemory() {
		ea := te.EA
		q0, q1 := ea>>3, (ea+7)>>3
		if p, ok := b.lastStore[q0]; ok {
			dep[depMem] = p
		}
		if p, ok := b.lastStore[q1]; ok && p > dep[depMem] {
			dep[depMem] = p
		}
		if cls.IsStore {
			b.lastStore[q0] = i
			b.lastStore[q1] = i
		}
		d.ea = append(d.ea, ea)
	}
	if r, ok := in.Dest(); ok {
		b.lastWriter[r] = i
	}
	d.deps = append(d.deps, dep)
	d.ops = append(d.ops, op)
	d.pc = append(d.pc, int32(te.PC))
	d.lastNextPC = int32(te.NextPC)
}

// Decoded finishes the stream and returns its decode, sized exactly. The
// error reports a stream that is not a committed instruction stream (an
// entry's next PC is not the following entry's PC). b must not be used
// afterwards.
func (b *Decoder) Decoded() (*Decoded, error) {
	d := b.d
	d.deps, d.ops, d.pc, d.ea = fit(d.deps), fit(d.ops), fit(d.pc), fit(d.ea)
	b.d = Decoded{}
	return &d, d.err
}

// fit returns s with its capacity trimmed to its length, copying only when
// there is spare capacity.
func fit[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}
