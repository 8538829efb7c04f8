package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
)

// Wrong-path modeling (Options.WrongPath): instead of stalling
// fetch while a mispredicted branch resolves, the front end keeps fetching
// down the predicted (wrong) path from the static program image. Wrong-path
// instructions consume instruction-cache bandwidth (polluting the I-cache),
// fetch and dispatch slots, window capacity, and scheduler select bandwidth,
// and are squashed when the branch resolves — the first-order costs the
// plain trace-driven mode folds into the refill penalty. The wrong path
// executes with real values on the emulator's own semantics: the run steps
// a fetch-order emulator past every committed instruction it fetches, and
// each wrong path runs on a fork of it, so wrong-path loads compute their
// true speculative addresses and pollute the data cache just as in
// hardware; wrong-path stores reach only the fork's copy-on-write memory,
// as they drain from the store queue without committing.

// startWrongPath records where the wrong path begins when a misprediction is
// detected at fetch. predictedNext is the PC the (wrong) prediction would
// fetch next; -1 when the front end has no predicted target (e.g. a BTB
// miss), in which case fetch simply stalls as in the base model. The fork is
// taken before the fetch-order emulator steps the mispredicted branch
// itself, so a call's link-register write is not yet in it.
func (s *Simulator) startWrongPath(predictedNext int) {
	if s.wp == nil || predictedNext < 0 {
		return
	}
	s.wpPath = s.wp.Fork()
	s.wpPath.PC = predictedNext
}

// stepFetchOrder steps the fetch-order emulator past the committed
// instruction fetched at pc, which must be the one it is positioned at.
func (s *Simulator) stepFetchOrder(pc int32) error {
	if s.wp.PC != int(pc) {
		return fmt.Errorf("core: wrong-path emulator is at pc %d after %d instructions, but fetch reads pc %d: it must start at the trace's first instruction",
			s.wp.PC, s.wp.InstCount(), pc)
	}
	var te emu.TraceEntry
	return s.wp.StepInto(&te)
}

// fetchWrongPath fetches up to the front width of wrong-path instructions
// for this cycle, following predicted directions through further branches.
func (s *Simulator) fetchWrongPath(cycle int64) {
	e := s.wpPath
	if e == nil {
		return
	}
	insts := e.Program().Insts
	fetched := 0
	blocks := 1
	for fetched < s.cfg.FrontWidth && s.fqLen < s.fetchQCap {
		pc := e.PC
		if pc < 0 || pc >= len(insts) {
			s.wpPath = nil
			return
		}
		if !s.fetchLine(pc, cycle) {
			return // wrong-path fetch also waits on misses
		}
		// An instruction the emulator cannot execute writes nothing; the
		// path still follows the predictor past it.
		var te emu.TraceEntry
		_ = e.StepInto(&te)
		s.fqPush(fetchEntry{idx: -1, fetchCycle: cycle, wpOp: te.Inst.Op, wpEA: te.EA})
		s.fetchQHasWP = true
		fetched++
		next, taken, ok := s.wrongPathNext(pc, te.Inst)
		if !ok {
			s.wpPath = nil
			return
		}
		if taken {
			s.lastFetchLine = -1
			blocks++
		}
		e.PC = next
		if blocks > s.cfg.MaxFetchBlocks {
			return
		}
	}
}

// wrongPathNext follows the predictor (without training it) through a
// wrong-path instruction.
func (s *Simulator) wrongPathNext(pc int, in isa.Instruction) (next int, taken bool, ok bool) {
	if in.Op == isa.HALT {
		return 0, false, false
	}
	return s.pred.Follow(branch.KindOf(in.Op), pc, pc+1+int(in.Imm))
}

// dispatchWrongPath places one wrong-path fetch entry into a scheduler.
func (s *Simulator) dispatchWrongPath(fe *fetchEntry, cycle int64) bool {
	cls := isa.ClassOf(fe.wpOp)
	sched := s.steerTarget(cls.In, 0, 0)
	if s.scheds[sched].n >= s.cfg.SchedulerSize {
		return false
	}
	id := s.allocUop()
	u := &s.pool[id]
	s.initUop(u, sched, cycle)
	u.wp = true
	u.op = classOp(cls, 0)
	u.ea = fe.wpEA
	s.residentPush(sched, id)
	if s.backend == BackendEvent {
		// No sources and no memory ordering: issueable at minExe.
		s.postReady(id, cycle)
	}
	s.steerCount++
	s.inFlight++
	s.wpInFlight++
	return true
}

// squashWrongPath removes every wrong-path instruction from the front-end
// queue and the schedulers when the mispredicted branch resolves. Squash is
// immediate and total: a squashed entry can never issue afterwards. (The
// pre-slab implementation compacted the scheduler slices in place, aliasing
// the backing array an in-progress issue scan was compacting through — the
// classic bug-surface the intrusive lists remove. Issue scans observe the
// squash via squashEpoch and restart from a clean list head.)
func (s *Simulator) squashWrongPath() {
	if s.wpInFlight == 0 && s.wpPath == nil && !s.fetchQHasWP {
		return
	}
	s.fqFilterWP()
	for si := range s.scheds {
		id := s.scheds[si].head
		for id != nilID {
			u := &s.pool[id]
			next := u.next
			if u.wp {
				s.residentRemove(si, id)
				switch u.state {
				case uopReady:
					s.readyRemove(si, id)
					s.freeUop(id)
				case uopQueued:
					// Its wakeup is in the calendar; reclaim when it pops.
					u.state = uopDead
				default:
					s.freeUop(id)
				}
			}
			id = next
		}
	}
	s.inFlight -= s.wpInFlight
	s.wpInFlight = 0
	s.wpPath = nil
	s.fetchQHasWP = false
	s.squashEpoch++
}

// executeWrongPath models a granted wrong-path instruction: it occupied a
// select slot and functional unit, and a wrong-path load accesses the data
// cache at its real speculative address (cache pollution — wrong-path fills
// stay in the cache after the squash, exactly as in hardware). Its result is
// poison and produces no record. Issued wrong-path work remains counted
// against the window until the squash.
func (s *Simulator) executeWrongPath(u *uop, cycle int64) {
	s.res.WrongPathIssued++
	if u.op.has(opLoad) {
		s.hier.Load(u.ea, cycle+s.cfg.Latencies[u.op.latency()].Exec-1)
		s.res.WrongPathLoads++
	}
}
