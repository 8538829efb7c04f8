package core

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// The static decode: everything the pipeline model needs to know about a
// trace entry that does not depend on the machine — its register producers
// and which of them must arrive in 2's complement (Table 1 In=TC, or store
// data), the older store it must follow, its effective Table 1 formats with
// the §3.6 MOV exception applied, its latency class, and its structural
// flags. The experiment matrix simulates every machine over the same
// traces, so the harness decodes each trace once (workload.Decoded) and
// every cell reads the shared, immutable result; a run given no decode
// (sampled windows, one-off runs) decodes into its Buffers instead. Both go
// through decodeInto, so there is one decode.

// opWord packs an entry's per-instruction facts into 16 bits:
//
//	[1:0] effective In format   [3:2] effective Out format
//	[7:4] latency class         [9:8] register source count
//	[10] load  [11] store  [12] writes a register
//	[13] conditional branch     [14] indirect branch
type opWord uint16

const (
	opOutShift  = 2
	opLatShift  = 4
	opNsrcShift = 8

	opLoad       opWord = 1 << 10
	opStore      opWord = 1 << 11
	opDest       opWord = 1 << 12
	opCondBranch opWord = 1 << 13
	opIndirect   opWord = 1 << 14
)

// The latency class must fit its four bits.
var _ [16 - int(isa.NumLatencyClasses)]struct{}

// classOp packs a classification (and a source count) into an op word.
func classOp(c isa.Class, nsrc int) opWord {
	w := opWord(c.In) | opWord(c.Out)<<opOutShift | opWord(c.Latency)<<opLatShift | opWord(nsrc)<<opNsrcShift
	if c.IsLoad {
		w |= opLoad
	}
	if c.IsStore {
		w |= opStore
	}
	if c.IsCondBranch {
		w |= opCondBranch
	}
	if c.IsIndirect {
		w |= opIndirect
	}
	return w
}

func (w opWord) in() isa.Format            { return isa.Format(w & 3) }
func (w opWord) out() isa.Format           { return isa.Format(w >> opOutShift & 3) }
func (w opWord) latency() isa.LatencyClass { return isa.LatencyClass(w >> opLatShift & 15) }
func (w opWord) nsrc() int8                { return int8(w >> opNsrcShift & 3) }
func (w opWord) has(flag opWord) bool      { return w&flag != 0 }

// depMem is the slot of an entry's dependence record that holds its memory
// dependence; slots 0..nsrc-1 hold its register producers as
// traceIndex<<1 | tc, where tc marks an operand that needs the producer's
// 2's-complement schedule. Unused slots, and a missing memory dependence,
// are -1.
const depMem = 3

// srcIndex and srcTC unpack a producer slot.
func srcIndex(p int32) int32 { return p >> 1 }
func srcTC(p int32) bool     { return p&1 != 0 }

// Decoded is the static decode of one trace (see Decode). It is immutable
// once built and safe for any number of concurrent runs to share.
type Decoded struct {
	first *emu.TraceEntry // the decoded trace's first entry; nil when empty
	deps  [][4]int32
	ops   []opWord
	// table1 is the trace's dynamic Table 1 mix (by opcode class, as the
	// paper tabulates it — the MOV exception is a scheduling refinement).
	table1 [isa.NumTable1Rows]int64
}

// Decode builds the static decode of a trace, for Options.Decoded. Memory
// dependences are always decoded; a run whose machine does not model them
// ignores them.
func Decode(trace []emu.TraceEntry) *Decoded {
	d := &Decoded{}
	d.decodeInto(trace, make(map[uint64]int32))
	return d
}

// check reports whether d was decoded from trace: the same backing array
// and length.
func (d *Decoded) check(trace []emu.TraceEntry) error {
	if len(d.ops) != len(trace) || (len(trace) > 0 && d.first != &trace[0]) {
		return fmt.Errorf("core: decode of a different trace (%d entries) given for a trace of %d entries", len(d.ops), len(trace))
	}
	return nil
}

// decodeInto decodes trace into d, reusing d's arrays when they are large
// enough. lastStore is scratch: the most recent store to each quadword
// (computed from the trace's exact effective addresses; real hardware would
// discover the same orderings in its load/store queue).
func (d *Decoded) decodeInto(trace []emu.TraceEntry, lastStore map[uint64]int32) {
	n := len(trace)
	d.first = nil
	if n > 0 {
		d.first = &trace[0]
	}
	d.deps = grown(d.deps, n)
	d.ops = grown(d.ops, n)
	d.table1 = [isa.NumTable1Rows]int64{}
	clear(lastStore)
	var lastWriter [isa.NumRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	var regs [4]isa.Reg
	for i := range trace {
		in := &trace[i].Inst
		d.table1[isa.ClassOf(in.Op).Row]++
		cls := in.EffectiveClass()
		dep := [4]int32{-1, -1, -1, -1}
		k := 0
		for si, r := range in.Srcs(regs[:0]) {
			p := lastWriter[r]
			if p < 0 {
				continue // initial register state: always ready
			}
			// An operand needs the TC schedule when the consuming unit
			// requires 2's complement (Table 1 In=TC) or it is store data
			// (Table 3: "3 for stores").
			dep[k] = p << 1
			if cls.In == isa.FormatTC || (cls.IsStore && si == 0) {
				dep[k] |= 1
			}
			k++
		}
		op := classOp(cls, k)
		if cls.IsMemory() {
			ea := trace[i].EA
			q0, q1 := ea>>3, (ea+7)>>3
			if p, ok := lastStore[q0]; ok {
				dep[depMem] = p
			}
			if p, ok := lastStore[q1]; ok && p > dep[depMem] {
				dep[depMem] = p
			}
			if cls.IsStore {
				lastStore[q0] = int32(i)
				lastStore[q1] = int32(i)
			}
		}
		if r, ok := in.Dest(); ok {
			lastWriter[r] = int32(i)
			op |= opDest
		}
		d.deps[i] = dep
		d.ops[i] = op
	}
}
