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
// It trains the predictor through the detailed front end's own fetch-time
// routine (branch.Predictor.Fetch) and touches the I-cache once per fetch
// line, starting a new line after a taken branch or a misprediction as the
// detailed fetch does. So at the same fetch point its predictor and L1I
// state equal those of a detailed run with wrong-path modeling off, exactly
// (TestWarmerMatchesDetailedFrontEnd in internal/core). L1D and L2 differ
// by execute order: the warmer touches data in program order, the detailed
// core when each load or store executes, and the L2 serves both sides'
// misses. In a run with wrong-path fetch (core.Options.WrongPath), the
// wrong-path fetches and loads a committed stream cannot see are the
// remaining gap. Warm-up windows absorb both.
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
func (w *Warmer) Warm(c Commit) {
	pc := int(c.PC)
	if w.Hier != nil {
		// One I-cache touch per 64-byte line, as the detailed fetch does.
		line := int64(pc) * 8 >> 6
		if line != w.lastFetchLine {
			w.Hier.WarmFetch(uint64(pc) * 8)
			w.lastFetchLine = line
		}
		if cls := isa.ClassOf(c.Op); cls.IsLoad {
			w.Hier.WarmLoad(c.EA)
		} else if cls.IsStore {
			w.Hier.WarmStore(c.EA)
		}
	}
	newPath := c.Taken
	if k := branch.KindOf(c.Op); k != branch.NotBranch && w.Pred != nil {
		// The detailed fetch also restarts its line when a misprediction
		// resolves.
		mispredict, _ := w.Pred.Fetch(k, pc, c.Taken, c.NextPC)
		newPath = newPath || mispredict
	}
	if newPath {
		w.lastFetchLine = -1 // the next instruction starts a new fetch line
	}
}
