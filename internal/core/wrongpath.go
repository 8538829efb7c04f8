package core

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// Wrong-path modeling (machine.Config.ModelWrongPath): instead of stalling
// fetch while a mispredicted branch resolves, the front end keeps fetching
// down the predicted (wrong) path from the static program image. Wrong-path
// instructions consume instruction-cache bandwidth (polluting the I-cache),
// fetch and dispatch slots, window capacity, and scheduler select bandwidth,
// and are squashed when the branch resolves — the first-order costs the
// plain trace-driven mode folds into the refill penalty. The wrong path
// executes with real values: a shadow architectural state is maintained in
// fetch order, so wrong-path loads compute their true speculative addresses
// and pollute the data cache just as in hardware; wrong-path stores drain
// from the store queue without committing.

// startWrongPath records where the wrong path begins when a misprediction is
// detected at fetch. predictedNext is the PC the (wrong) prediction would
// fetch next; -1 when the front end has no predicted target (e.g. a BTB
// miss), in which case fetch simply stalls as in the base model. The wrong
// path starts from the fetch-order architectural state, so its instructions
// compute real values (and real load addresses).
func (s *Simulator) startWrongPath(predictedNext int) {
	if !s.cfg.ModelWrongPath || s.prog == nil {
		return
	}
	s.wpPC = predictedNext
	s.wpRegs = s.shadowRegs
	for k := range s.wpOverlay {
		delete(s.wpOverlay, k)
	}
}

// updateShadow applies fetched committed instruction idx to the
// fetch-order architectural state used to seed wrong paths. It reads the
// full trace's result values, which is why wrong-path fetch needs the full
// trace; fetch calls it only when the shadow state exists.
func (s *Simulator) updateShadow(idx int32) {
	te := &s.trace[idx]
	cls := isa.ClassOf(te.Inst.Op)
	if cls.IsStore {
		size := storeSize(te.Inst.Op)
		s.shadowMem.Write(te.EA, size, s.shadowRegs[te.Inst.Ra])
		return
	}
	if d, ok := te.Inst.Dest(); ok {
		s.shadowRegs[d] = te.Result
	}
}

func storeSize(op isa.Op) int {
	switch op {
	case isa.STQ:
		return 8
	case isa.STL:
		return 4
	default:
		return 1
	}
}

// wpRead reads wrong-path memory: speculative stores overlay the fetch-order
// shadow memory.
func (s *Simulator) wpRead(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		b, ok := s.wpOverlay[a]
		if !ok {
			b = s.shadowMem.LoadByte(a)
		}
		v |= uint64(b) << (8 * i)
	}
	return v
}

// wpWrite buffers a wrong-path store (it never reaches the cache: squashed
// stores drain from the store queue without committing).
func (s *Simulator) wpWrite(addr uint64, size int, v uint64) {
	for i := 0; i < size; i++ {
		s.wpOverlay[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// predictedWrongTarget computes where fetch would go after mispredicting the
// branch at te: the fall-through for a wrongly-not-taken prediction, the
// BTB/RAS target for a wrongly-taken or wrong-target prediction, or -1 when
// no target was available.
func (s *Simulator) predictedWrongTarget(pc int, wasTaken bool, predTaken bool, predTarget int, haveTarget bool) int {
	if !predTaken {
		return pc + 1
	}
	if haveTarget {
		return predTarget
	}
	return -1
}

// fetchWrongPath fetches up to the front width of wrong-path instructions
// for this cycle, following predicted directions through further branches.
func (s *Simulator) fetchWrongPath(cycle int64) {
	if s.wpPC < 0 || s.prog == nil {
		return
	}
	fetched := 0
	blocks := 1
	for fetched < s.cfg.FrontWidth && s.fqLen < s.fetchQCap {
		if s.wpPC < 0 || s.wpPC >= len(s.prog.Insts) {
			s.wpPC = -1
			return
		}
		in := s.prog.Insts[s.wpPC]
		line := int64(s.wpPC) * 8 >> 6
		if line != s.lastFetchLine {
			doneAt := s.hier.Fetch(uint64(s.wpPC)*8, cycle)
			s.lastFetchLine = line
			if doneAt > cycle+s.cfg.Mem.L1ILatency {
				s.fetchBlockedTill = doneAt // wrong-path fetch also waits on misses
				return
			}
		}
		fe := fetchEntry{idx: -1, fetchCycle: cycle, wpOp: in.Op}
		s.wpExecute(s.wpPC, in, &fe)
		s.fqPush(fe)
		s.fetchQHasWP = true
		fetched++
		next, taken, ok := s.wrongPathNext(s.wpPC, in)
		if !ok {
			s.wpPC = -1
			return
		}
		if taken {
			s.lastFetchLine = -1
			blocks++
		}
		s.wpPC = next
		if blocks > s.cfg.MaxFetchBlocks {
			return
		}
	}
}

// wpExecute runs one wrong-path instruction against the speculative shadow
// state, recording load addresses so the dispatched uop can pollute the data
// cache with a real access.
func (s *Simulator) wpExecute(pc int, in isa.Instruction, fe *fetchEntry) {
	cls := isa.ClassOf(in.Op)
	ra := s.wpRegs[in.Ra]
	rb := s.wpRegs[in.Rb]
	if in.UseImm {
		rb = uint64(in.Imm)
	}
	write := func(r isa.Reg, v uint64) {
		if r != isa.RZero {
			s.wpRegs[r] = v
		}
	}
	switch {
	case in.Op == isa.HALT:
	case in.Op == isa.LDA:
		write(in.Ra, s.wpRegs[in.Rb]+uint64(in.Imm))
	case in.Op == isa.LDAH:
		write(in.Ra, s.wpRegs[in.Rb]+uint64(in.Imm)*65536)
	case cls.IsLoad:
		ea := s.wpRegs[in.Rb] + uint64(in.Imm)
		fe.wpEA = ea
		var v uint64
		switch in.Op {
		case isa.LDQ:
			v = s.wpRead(ea, 8)
		case isa.LDL:
			v = uint64(int64(int32(uint32(s.wpRead(ea, 4)))))
		default:
			v = s.wpRead(ea, 1)
		}
		write(in.Ra, v)
	case cls.IsStore:
		s.wpWrite(s.wpRegs[in.Rb]+uint64(in.Imm), storeSize(in.Op), ra)
	case cls.IsCondBranch:
		// Direction comes from the predictor (wrongPathNext); no register
		// state changes.
	case in.Op == isa.BR || in.Op == isa.BSR || cls.IsIndirect:
		write(in.Ra, uint64(pc+1))
	default:
		if v, err := emu.Eval(in.Op, ra, rb, s.wpRegs[in.Rc]); err == nil {
			write(in.Rc, v)
		}
	}
}

// wrongPathNext follows the predictor (without training it) through a
// wrong-path instruction.
func (s *Simulator) wrongPathNext(pc int, in isa.Instruction) (next int, taken bool, ok bool) {
	cls := isa.ClassOf(in.Op)
	switch {
	case in.Op == isa.HALT:
		return 0, false, false
	case cls.IsCondBranch:
		if s.pred.PredictDirection(pc) {
			return pc + 1 + int(in.Imm), true, true
		}
		return pc + 1, false, true
	case in.Op == isa.BR || in.Op == isa.BSR:
		return pc + 1 + int(in.Imm), true, true
	case cls.IsIndirect:
		if tgt, hit := s.pred.PredictTarget(pc); hit {
			return tgt, true, true
		}
		return 0, false, false
	default:
		return pc + 1, false, true
	}
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
	if s.wpInFlight == 0 && s.wpPC < 0 && !s.fetchQHasWP {
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
	s.wpPC = -1
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
