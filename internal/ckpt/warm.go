package ckpt

import (
	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Commit is one committed instruction as functional warming reads it: the
// fetch PC, the executed next PC, the effective address of a load or store,
// the opcode, and the branch outcome. It is the warmer's declared input, and
// it packs into 24 bytes against a trace entry's 64, which is what a
// fast-forward pass sends from its emulator stage to its warm stage.
type Commit struct {
	EA     uint64
	NextPC int
	// PC is an instruction index; the emulator only executes in-range PCs,
	// so it fits 32 bits for any program that assembles.
	PC    int32
	Op    isa.Op
	Taken bool
}

// commitOf extracts the fields warming reads from a trace entry.
func commitOf(te *emu.TraceEntry) Commit {
	return Commit{EA: te.EA, NextPC: te.NextPC, PC: int32(te.PC), Op: te.Inst.Op, Taken: te.Taken}
}

// Warmer evolves microarchitectural warm state (cache tags, predictor
// tables) from a committed instruction stream without charging any timing.
// It mirrors the stateful touch sequence of the detailed front end
// (core.predictBranch and the per-line I-fetch of core.fetch) so a
// checkpointed warm state looks like the one a detailed run would have
// reached — approximately: the detailed core also touches state on
// wrong-path fetches, which a functional stream cannot see. Warm-up windows
// absorb that residual error.
type Warmer struct {
	Hier *mem.Hierarchy
	Pred *branch.Predictor

	lastFetchLine int64
}

// NewWarmer builds a warmer over the given (possibly nil) structures.
func NewWarmer(h *mem.Hierarchy, p *branch.Predictor) *Warmer {
	return &Warmer{Hier: h, Pred: p, lastFetchLine: -1}
}

// Observe feeds one committed trace entry through the warm-state models.
func (w *Warmer) Observe(te *emu.TraceEntry) { w.Warm(commitOf(te)) }

// Warm feeds one committed instruction through the warm-state models.
//
//rblint:hotpath functional warming runs once per fast-forwarded instruction
func (w *Warmer) Warm(c Commit) {
	pc := int(c.PC)
	if w.Hier != nil {
		// One I-cache touch per 64-byte line, as the detailed fetch does.
		line := int64(pc) * 8 >> 6
		if line != w.lastFetchLine {
			w.Hier.WarmFetch(uint64(pc) * 8)
			w.lastFetchLine = line
		}
	}
	cls := isa.ClassOf(c.Op)
	switch {
	case cls.IsLoad:
		if w.Hier != nil {
			w.Hier.WarmLoad(c.EA)
		}
	case cls.IsStore:
		if w.Hier != nil {
			w.Hier.WarmStore(c.EA)
		}
	case cls.IsCondBranch:
		if w.Pred != nil {
			// Same stateful order as the detailed front end: train the
			// direction predictor, look up the BTB (its LRU state moves on
			// lookups), then install the target of a taken branch.
			w.Pred.UpdateDirection(pc, c.Taken)
			w.Pred.PredictTarget(pc)
			if c.Taken {
				w.Pred.UpdateTarget(pc, c.NextPC)
			}
		}
	case c.Op == isa.BSR:
		if w.Pred != nil {
			w.Pred.PushReturn(pc + 1)
		}
	case c.Op == isa.RET:
		if w.Pred != nil {
			w.Pred.PopReturn()
		}
	case cls.IsIndirect:
		if w.Pred != nil {
			if c.Op == isa.JSR {
				w.Pred.PushReturn(pc + 1)
			}
			w.Pred.PredictTarget(pc)
			w.Pred.UpdateTarget(pc, c.NextPC)
		}
	}
	if c.Taken {
		w.lastFetchLine = -1 // next instruction starts a new fetch path
	}
}
