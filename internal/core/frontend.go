package core

import (
	"repro/internal/branch"
	"repro/internal/isa"
)

// The front end: instruction fetch with branch prediction and I-cache
// timing, and in-order dispatch into the partitioned schedulers (the 6
// fetch/decode + 2 rename stages of the paper's pipeline, plus steering).

// fetch models the front end for one cycle: up to FrontWidth instructions
// from up to MaxFetchBlocks basic blocks, stalled by instruction cache
// misses and unresolved branch mispredictions.
func (s *Simulator) fetch(cycle int64) {
	if cycle < s.fetchBlockedTill {
		return
	}
	if s.fetchBlockedIdx >= 0 {
		// An unresolved misprediction: either stall (base model) or keep
		// fetching down the predicted wrong path.
		s.fetchWrongPath(cycle)
		return
	}
	fetched := 0
	blocks := 1
	for fetched < s.cfg.FrontWidth && s.nextFetch < s.n && s.fqLen < s.fetchQCap {
		pc := s.dec.pc[s.nextFetch]
		op := s.dec.ops[s.nextFetch]
		if !s.fetchLine(int(pc), cycle) {
			return
		}
		mispredict, redirect := s.predictBranch(s.nextFetch, int(pc), op)
		if s.stages != nil {
			s.stages[s.nextFetch].Fetch = cycle
		}
		s.fqPush(fetchEntry{idx: s.nextFetch, fetchCycle: cycle, mispredict: mispredict})
		if s.wp != nil {
			if err := s.stepFetchOrder(pc); err != nil {
				s.checkErr = err
				return
			}
		}
		s.nextFetch++
		fetched++
		if mispredict {
			s.startWrongPath(redirect)
			s.fetchBlockedIdx = s.nextFetch - 1
			return
		}
		if op.has(opTaken) {
			s.lastFetchLine = -1 // next instruction is on a new fetch path
			blocks++
			if blocks > s.cfg.MaxFetchBlocks {
				return
			}
		}
	}
}

// fetchLine is the instruction cache access for fetching pc: one access per
// 64-byte line (8-byte instructions). It reports false on a miss, which
// blocks fetch until the line arrives.
func (s *Simulator) fetchLine(pc int, cycle int64) bool {
	line := int64(pc) * 8 >> 6
	if line == s.lastFetchLine {
		return true
	}
	doneAt := s.hier.Fetch(uint64(pc)*8, cycle)
	s.lastFetchLine = line
	if doneAt > cycle+s.cfg.Mem.L1ILatency {
		s.fetchBlockedTill = doneAt
		return false
	}
	return true
}

// predictBranch consults and trains the predictor for trace entry idx, at
// pc with op word op, at fetch time (branch.Predictor.Fetch, the touch
// sequence functional warming shares), returning whether the front end will
// follow the wrong path (and so must stall until the branch resolves) and
// the PC that path starts at (-1 when the predictor had no target).
func (s *Simulator) predictBranch(idx int32, pc int, op opWord) (mispredict bool, redirect int) {
	k := op.kind()
	if k == branch.NotBranch {
		return false, 0
	}
	mispredict, redirect = s.pred.Fetch(k, pc, op.has(opTaken), s.dec.nextPC(idx))
	if k.Predicted() {
		s.res.Branches++
	}
	if mispredict {
		s.res.BranchMispredicts++
	}
	return mispredict, redirect
}

// dispatch moves instructions from the front-end queue into the schedulers.
func (s *Simulator) dispatch(cycle int64) {
	dispatched := 0
	for s.fqLen > 0 && dispatched < s.cfg.FrontWidth {
		fe := s.fqFront()
		if fe.fetchCycle+s.cfg.FrontLatency > cycle {
			return // still in fetch/decode/rename
		}
		if s.inFlight >= s.cfg.WindowSize {
			return // window full
		}
		if fe.idx < 0 {
			if !s.dispatchWrongPath(fe, cycle) {
				return
			}
			s.fqPop()
			dispatched++
			continue
		}
		op := s.dec.ops[fe.idx]
		dep := &s.dec.deps[fe.idx]
		sched := s.steerTarget(op.in(), dep[0], op.nsrc())
		if s.scheds[sched].n >= s.cfg.SchedulerSize {
			return // in-order dispatch stalls on a full scheduler
		}
		id := s.allocUop()
		u := &s.pool[id]
		s.initUop(u, sched, cycle)
		u.idx = fe.idx
		u.op = op
		u.mispredict = fe.mispredict
		u.dep = *dep
		if !s.cfg.MemoryDependence {
			u.dep[depMem] = -1
		}
		if op.has(opLoad | opStore) {
			u.ea = s.dec.ea[s.nextMem]
			s.nextMem++
		}
		if s.stages != nil {
			s.stages[fe.idx].Dispatch = cycle
		}
		s.residentPush(sched, id)
		if s.backend == BackendEvent {
			s.eventArm(id, cycle)
		}
		s.dispCluster[fe.idx] = u.cluster
		s.fqPop()
		if s.cfg.ClassSchedulers && op.in() == isa.FormatTC {
			s.steerCountTC++
		} else {
			s.steerCount++
		}
		s.inFlight++
		dispatched++
	}
}

// initUop resets a freshly allocated uop for dispatch into scheduler sched:
// no trace index, sources or memory dependence yet, unlinked, waiting.
// Fields are written one by one rather than from a composite literal, which
// would build the whole uop in a temporary and copy it into the slab.
func (s *Simulator) initUop(u *uop, sched int, cycle int64) {
	u.idx = -1
	u.sched = int32(sched)
	u.minExe = cycle + s.cfg.IssueToExecute
	u.seq = s.seqCtr
	s.seqCtr++
	u.ea = 0
	u.dep = [4]int32{-1, -1, -1, -1}
	u.waitNext = [4]int32{nilID, nilID, nilID, nilID}
	u.prev, u.next = nilID, nilID
	u.rdyPrev, u.rdyNext = nilID, nilID
	u.op = 0
	u.cluster = s.clusterOf(sched)
	u.mispredict = false
	u.wp = false
	u.state = uopWaiting
	u.pending = 0
}

// steerTarget picks the scheduler for the next dispatched instruction.
// Default: round-robin of consecutive pairs over all schedulers (§5.1).
// With ClassSchedulers (the first scheduling technique of §4.3), TC-input
// instructions go to the upper half of the schedulers and RB-capable ones to
// the lower half, each half round-robin — "the use of separate schedulers is
// warranted since these two classes of instructions execute on different
// functional units"; the 2-cycle latching of wakeup broadcasts between the
// two groups is the tcIn availability schedule.
//
// in is the instruction's effective input format and src0 its first
// producer slot (read only when nsrc > 0).
func (s *Simulator) steerTarget(in isa.Format, src0 int32, nsrc int8) int {
	if s.cfg.DependenceSteering && s.cfg.Clusters > 1 && nsrc > 0 {
		// Paper §4.2 closes by pointing at instruction steering as the way
		// to tolerate further bypass restrictions; this implements the
		// standard dependence-based policy: place an instruction in its
		// first producer's cluster (falling back to round-robin), choosing
		// the emptier scheduler within the cluster.
		if c := s.dispCluster[srcIndex(src0)]; c >= 0 {
			perCluster := s.cfg.NumSchedulers / s.cfg.Clusters
			best := int(c) * perCluster
			for i := 1; i < perCluster; i++ {
				cand := int(c)*perCluster + i
				if s.scheds[cand].n < s.scheds[best].n {
					best = cand
				}
			}
			return best
		}
	}
	if s.cfg.ClassSchedulers && s.cfg.NumSchedulers >= 2 {
		half := s.cfg.NumSchedulers / 2
		if in == isa.FormatTC {
			return half + int(s.steerCountTC/2)%(s.cfg.NumSchedulers-half)
		}
		return int(s.steerCount/2) % half
	}
	return int(s.steerCount/2) % s.cfg.NumSchedulers
}
