package core

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rb"
)

// WarmState is the predictor and cache state the last run on b left behind.
func (b *Buffers) WarmState() (*branch.PredictorState, mem.HierState) {
	return b.pred.State(), b.hier.State()
}

// Seeded returns a copy of d with one defect seeded by corrupt, which may
// rewrite the copy's PCs, branch outcomes and effective addresses.
func Seeded(d *Decoded, corrupt func(pc []int32, taken []bool, ea []uint64)) *Decoded {
	c := *d
	c.deps = append([][4]int32(nil), d.deps...)
	c.pc = append([]int32(nil), d.pc...)
	c.ops = append([]opWord(nil), d.ops...)
	c.ea = append([]uint64(nil), d.ea...)
	taken := make([]bool, len(c.ops))
	for i, w := range c.ops {
		taken[i] = w.has(opTaken)
	}
	corrupt(c.pc, taken, c.ea)
	for i, tk := range taken {
		if c.ops[i] &^= opTaken; tk {
			c.ops[i] |= opTaken
		}
	}
	return &c
}

// SeedRBOperand makes register r read, in the RB datapath, as v until its
// first write: the defect a wrong redundant binary form left by a producer
// would be.
func (s *Simulator) SeedRBOperand(r isa.Reg, v int64) {
	s.dpRB[r] = rbVal{n: rb.FromInt(v), valid: true}
}

// Columns returns the lengths and capacities of d's columns: deps, ops, pc
// and ea.
func Columns(d *Decoded) (lens, caps [4]int) {
	return [4]int{len(d.deps), len(d.ops), len(d.pc), len(d.ea)},
		[4]int{cap(d.deps), cap(d.ops), cap(d.pc), cap(d.ea)}
}
