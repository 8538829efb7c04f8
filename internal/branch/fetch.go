package branch

import "repro/internal/isa"

// Kind is an instruction's class as the front end predicts it. The kinds
// from Cond on are predicted (they can mispredict); a direct branch's target
// resolves in decode.
type Kind uint8

const (
	NotBranch    Kind = iota
	Jump              // BR: direct
	Call              // BSR: direct, pushes a return address
	Cond              // conditional: direction predictor and BTB
	Indirect          // JMP: BTB
	IndirectCall      // JSR: pushes a return address, then BTB
	Return            // RET: return address stack
)

// NumKinds is the number of kinds.
const NumKinds = int(Return) + 1

// kinds is KindOf's table, by opcode.
var kinds = func() (t [isa.NumOps]Kind) {
	for op := range t {
		if isa.ClassOf(isa.Op(op)).IsCondBranch {
			t[op] = Cond
		}
	}
	t[isa.BR], t[isa.BSR], t[isa.JMP], t[isa.JSR], t[isa.RET] = Jump, Call, Indirect, IndirectCall, Return
	return t
}()

// KindOf classifies an opcode for the front end.
func KindOf(op isa.Op) Kind {
	if int(op) < len(kinds) {
		return kinds[op]
	}
	return NotBranch
}

// Predicted reports whether the front end predicts a branch of kind k, so
// that it can mispredict.
func (k Kind) Predicted() bool { return k >= Cond }

// Fetch is the fetch-time touch sequence for the instruction of kind k at
// pc, whose actual outcome is taken with next PC next. Both the detailed
// front end and functional warming call it for every committed branch, in
// program order, so they leave the predictor in the same state. It
// reports whether the front end mispredicts, and if so the redirect: where
// fetch goes instead — the fall-through of a wrongly not-taken branch, the
// stale BTB or RAS target of a wrong-target one, or -1 with no predicted
// target.
func (p *Predictor) Fetch(k Kind, pc int, taken bool, next int) (mispredict bool, redirect int) {
	switch k {
	case Cond:
		// Predict and train the direction predictor, look up the BTB (its
		// LRU state moves on lookups), then install the target of a taken
		// branch.
		pred := p.updateDirection(pc, taken)
		tgt, hit := p.predictTarget(pc)
		if taken {
			p.updateTarget(pc, next)
		}
		switch {
		case taken && !pred: // fetch fell through
			return true, pc + 1
		case pred && !taken, taken && (!hit || tgt != next):
			return true, redirectTo(tgt, hit)
		}
	case Call:
		p.pushReturn(pc + 1)
	case Return:
		tgt, ok := p.popReturn()
		if !ok || tgt != next {
			return true, redirectTo(tgt, ok)
		}
	case Indirect, IndirectCall:
		if k == IndirectCall {
			p.pushReturn(pc + 1)
		}
		tgt, hit := p.predictTarget(pc)
		p.updateTarget(pc, next)
		if !hit || tgt != next {
			return true, redirectTo(tgt, hit)
		}
	}
	return false, 0
}

// redirectTo is a predicted target, or -1 when the structure had none.
func redirectTo(tgt int, ok bool) int {
	if ok {
		return tgt
	}
	return -1
}

// Follow is where the front end goes after the instruction of kind k at pc
// on a path it cannot check against an outcome (wrong-path fetch); direct is
// the taken target of a conditional or direct branch. It trains nothing, but
// a BTB lookup moves the BTB's LRU state as at fetch. A conditional branch
// follows its predicted direction; an indirect branch or return follows the
// BTB, and ok is false on a BTB miss.
func (p *Predictor) Follow(k Kind, pc, direct int) (next int, taken, ok bool) {
	switch k {
	case Cond:
		if p.predictDirection(pc) {
			return direct, true, true
		}
	case Jump, Call:
		return direct, true, true
	case Indirect, IndirectCall, Return:
		tgt, hit := p.predictTarget(pc)
		return tgt, hit, hit
	}
	return pc + 1, false, true
}
