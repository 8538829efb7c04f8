package core

import (
	"repro/internal/bypass"
	"repro/internal/isa"
)

// The back end: wakeup (operand availability per the bypass schedules),
// select-2 issue, execution with Table 3 latencies and the cache hierarchy,
// bypass-case accounting, and in-order retirement.
//
// Two interchangeable wakeup/select implementations exist. issuePoll is the
// direct transcription of the hardware: every resident entry re-evaluates
// ready() every cycle. issueEvent is the optimized form: a granted
// producer's availability schedule is solved in closed form and each
// dependent receives a single calendar wakeup at the exact cycle it first
// becomes issueable; ready lists then hold precisely the issueable entries.
// internal/check's "backends" layer proves the two produce bit-identical
// results over the experiment matrix.

// ready reports whether every source of u is obtainable for an EXE starting
// this cycle, per the availability schedules and cluster delays.
func (s *Simulator) ready(u *uop, cycle int64) bool {
	if cycle < u.minExe {
		return false
	}
	if m := u.dep[depMem]; m >= 0 {
		// A load (or store) to a quadword written by an older in-flight
		// store waits for that store to execute; the store queue then
		// forwards (or orders) the data with no extra delay.
		d := s.done[m]
		if d < 0 || cycle <= d {
			return false
		}
	}
	for i, n := int8(0), u.op.nsrc(); i < n; i++ {
		src := u.dep[i]
		p := &s.prod[srcIndex(src)]
		if p.t < 0 {
			return false
		}
		off := cycle - p.t
		if p.cluster != u.cluster {
			off -= s.cfg.InterClusterDelay
		}
		if !s.availability(p, src).AvailableAt(off) {
			return false
		}
	}
	return true
}

// availability is the schedule on which the consumer of producer slot src
// can obtain p's result: the 2's-complement one when the slot's TC bit is
// set.
func (s *Simulator) availability(p *prodRecord, src int32) *bypass.Schedule {
	return &s.resultSched[p.sched][src&1]
}

// earliestReadyFrom returns the first cycle >= from at which every issue
// constraint of u is satisfied (the cycle ready() first reports true), or -1
// if some source never becomes obtainable. Availability holes make readiness
// non-monotonic, so this iterates to a fixed point: advancing past one
// source's hole can land in another's.
func (s *Simulator) earliestReadyFrom(u *uop, from int64) int64 {
	c := from
	if c < u.minExe {
		c = u.minExe
	}
	if m := u.dep[depMem]; m >= 0 {
		d := s.done[m]
		if d < 0 {
			return -1 // caller guarantees the store executed; defensive
		}
		if c <= d {
			c = d + 1
		}
	}
	for changed := true; changed; {
		changed = false
		for i, n := int8(0), u.op.nsrc(); i < n; i++ {
			src := u.dep[i]
			p := &s.prod[srcIndex(src)]
			if p.t < 0 {
				return -1
			}
			delay := int64(0)
			if p.cluster != u.cluster {
				delay = s.cfg.InterClusterDelay
			}
			next := s.availability(p, src).NextAvailable(c - p.t - delay)
			if next < 0 {
				return -1
			}
			if t := p.t + delay + next; t > c {
				c = t
				changed = true
			}
		}
	}
	return c
}

// issuePoll performs wakeup and select for every scheduler by re-evaluating
// every resident entry (the BackendPoll oracle), then executes the granted
// instructions oldest-first up to the select width.
func (s *Simulator) issuePoll(cycle int64) {
	for si := range s.scheds {
		granted := 0
		id := s.scheds[si].head
		for id != nilID && granted < s.cfg.SelectWidth {
			u := &s.pool[id]
			next := u.next
			if s.ready(u, cycle) {
				epoch := s.squashEpoch
				s.grant(si, id, cycle)
				granted++
				if s.squashEpoch != epoch {
					// The grant resolved a mispredicted branch and squashed
					// wrong-path entries out of every list (possibly
					// including the saved next pointer). Restart from the
					// head: grants never make another entry ready within the
					// same cycle, so the rescan selects the same entries.
					next = s.scheds[si].head
				}
			}
			id = next
		}
	}
}

// issueEvent performs wakeup and select from the calendar queue (the
// BackendEvent hot path): due wakeups move entries onto their scheduler's
// ready list, each scheduler grants from the ready-list head oldest-first,
// and ungranted leftovers are re-validated against the next cycle (an entry
// whose source availability falls into a hole leaves the ready list and
// re-enters the calendar at its next obtainable cycle).
func (s *Simulator) issueEvent(cycle int64) {
	// Deliver this cycle's wakeups.
	s.calBuf = s.cal.Pop(cycle, s.calBuf[:0])
	for _, id := range s.calBuf {
		u := &s.pool[id]
		switch u.state {
		case uopDead:
			// Squashed while its wakeup was in flight; reclaim lazily.
			s.freeUop(id)
		case uopQueued:
			u.state = uopReady
			s.readyInsert(int(u.sched), id)
		}
	}
	for si := range s.scheds {
		granted := 0
		for granted < s.cfg.SelectWidth {
			// Re-read the head each iteration: a grant that resolves a
			// mispredicted branch squashes wrong-path entries out of the
			// ready lists.
			id := s.scheds[si].rdyHead
			if id == nilID {
				break
			}
			s.readyRemove(si, id)
			s.grant(si, id, cycle)
			granted++
		}
		// Leftovers lost select arbitration. They are ready now, but
		// readiness is not monotonic (availability holes): keep an entry
		// ready only if it is still issueable next cycle, otherwise post its
		// next obtainable cycle to the calendar.
		id := s.scheds[si].rdyHead
		for id != nilID {
			u := &s.pool[id]
			next := u.rdyNext
			t := s.earliestReadyFrom(u, cycle+1)
			if t != cycle+1 {
				s.readyRemove(si, id)
				if t < 0 {
					// Never again obtainable: park it as a stuck waiter so
					// the no-progress watchdog reports, as the poll backend
					// would. (Unreachable for real machine configs — every
					// schedule has a register-file tail.)
					u.state = uopWaiting
				} else {
					u.state = uopQueued
					s.postWakeup(t, id)
				}
			}
			id = next
		}
	}
}

// grant removes the selected entry from its scheduler and executes it.
func (s *Simulator) grant(si int, id int32, cycle int64) {
	u := &s.pool[id]
	s.residentRemove(si, id)
	if u.wp {
		s.executeWrongPath(u, cycle)
	} else {
		s.execute(u, cycle)
	}
	s.freeUop(id)
}

// eventArm registers a just-dispatched entry with the wakeup machinery
// (BackendEvent): each unexecuted producer (and unexecuted older aliasing
// store) gets a waiter-chain entry; an entry with no outstanding producers
// goes straight to the calendar at its first issueable cycle.
func (s *Simulator) eventArm(id int32, cycle int64) {
	u := &s.pool[id]
	u.pending = 0
	for i, n := int8(0), u.op.nsrc(); i < n; i++ {
		pi := srcIndex(u.dep[i])
		if s.prod[pi].t < 0 {
			u.waitNext[i] = s.waiterHead[pi]
			s.waiterHead[pi] = id<<2 | int32(i)
			u.pending++
		}
	}
	if m := u.dep[depMem]; m >= 0 && s.done[m] < 0 {
		u.waitNext[depMem] = s.waiterHead[m]
		s.waiterHead[m] = id<<2 | depMem
		u.pending++
	}
	if u.pending == 0 {
		s.postReady(id, cycle)
	}
}

// postReady computes the entry's first issueable cycle and posts its wakeup.
func (s *Simulator) postReady(id int32, cycle int64) {
	u := &s.pool[id]
	t := s.earliestReadyFrom(u, cycle+1)
	if t < 0 {
		// Never issueable: leave it waiting for the watchdog (poll would
		// spin on it forever too).
		u.state = uopWaiting
		return
	}
	u.state = uopQueued
	s.postWakeup(t, id)
}

// wakeDependents drains the waiter chain of a just-executed instruction:
// each waiter's outstanding-producer count drops, and the last satisfied
// dependence computes the waiter's exact wakeup cycle.
func (s *Simulator) wakeDependents(pi int32, cycle int64) {
	ref := s.waiterHead[pi]
	if ref == nilID {
		return
	}
	s.waiterHead[pi] = nilID
	for ref != nilID {
		id := ref >> 2
		slot := ref & 3
		u := &s.pool[id]
		next := u.waitNext[slot]
		u.waitNext[slot] = nilID
		u.pending--
		if u.pending == 0 {
			s.postReady(id, cycle)
		}
		ref = next
	}
}

// execute models the granted instruction's execution, records its result
// availability, and accounts statistics.
func (s *Simulator) execute(u *uop, cycle int64) {
	s.accountBypass(u, cycle)

	op := u.op
	class := op.latency()
	exeEnd := cycle + s.cfg.Latencies[class].Exec - 1
	switch {
	case op.has(opLoad):
		exeEnd = s.hier.Load(u.ea, exeEnd)
	case op.has(opStore):
		s.hier.Store(u.ea, exeEnd)
	}
	s.done[u.idx] = exeEnd
	if s.stages != nil {
		s.stages[u.idx].Issue = cycle
		s.stages[u.idx].Done = exeEnd
	}

	if u.mispredict && s.fetchBlockedIdx == u.idx {
		// Branch resolves at the end of execution; wrong-path work is
		// squashed, and fetch restarts next cycle, refilling the front end.
		s.squashWrongPath()
		s.fetchBlockedIdx = -1
		s.fetchBlockedTill = exeEnd + 1
		s.lastFetchLine = -1
	}

	if op.has(opDest) {
		p := &s.prod[u.idx]
		p.t = exeEnd
		p.cluster = u.cluster
		if op.has(opLoad) {
			// Load data is 2's complement from the cache: seamless for all.
			p.sched = loadDataSched
			p.outRB = false
		} else {
			p.sched = uint8(class)
			p.outRB = op.out() == isa.FormatRB
		}
	}
	if s.backend == BackendEvent {
		// Register consumers and ordered memory operations wake off the same
		// chain; both prod and done are final by this point.
		s.wakeDependents(u.idx, cycle)
	}
}

// accountBypass classifies the issued instruction's last-arriving source for
// the Figure-13 distribution and the §5.2 source-locality breakdown.
func (s *Simulator) accountBypass(u *uop, cycle int64) {
	n := u.op.nsrc()
	if n == 0 {
		s.res.SrcNoBypass++
		return
	}
	var (
		maxFirst   int64 = -1
		lastSrc    int   = -1
		lastOff    int64
		lastBypass bool
		anyBypass  bool
	)
	for i := int8(0); i < n; i++ {
		p := &s.prod[srcIndex(u.dep[i])]
		delay := int64(0)
		if p.cluster != u.cluster {
			delay = s.cfg.InterClusterDelay
		}
		sched := s.availability(p, u.dep[i])
		first := p.t + delay + sched.NextAvailable(1)
		off := cycle - p.t - delay
		viaBypass := !(sched.RFFrom > 0 && off >= int64(sched.RFFrom))
		if viaBypass {
			anyBypass = true
		}
		if first > maxFirst || (first == maxFirst && viaBypass && !lastBypass) {
			maxFirst = first
			lastSrc = int(i)
			lastOff = off
			lastBypass = viaBypass
		}
	}
	if anyBypass {
		s.res.BypassedInstructions++
	}
	if lastSrc >= 0 && lastBypass {
		src := u.dep[lastSrc]
		p := &s.prod[srcIndex(src)]
		var c BypassCase
		switch {
		case p.outRB && srcTC(src):
			c = RBtoTC
			s.res.ConversionDelayed++
		case p.outRB:
			c = RBtoRB
		case srcTC(src):
			c = TCtoTC
		default:
			c = TCtoRB
		}
		s.res.LastArriving[c]++
		if lastOff == 1 {
			s.res.SrcLevel1++
		} else {
			s.res.SrcOtherLevel++
		}
	} else {
		s.res.SrcNoBypass++
	}
}

// retire commits finished instructions in order, up to RetireWidth per
// cycle, and runs the commit-time check as values commit.
func (s *Simulator) retire(cycle int64) {
	n := s.n
	for retired := 0; retired < s.cfg.RetireWidth && s.retirePtr < n; retired++ {
		d := s.done[s.retirePtr]
		if d < 0 || d >= cycle {
			return
		}
		if s.oracle != nil {
			if err := s.commitCheck(s.retirePtr, cycle); err != nil {
				s.checkErr = err
				return
			}
		}
		if s.stages != nil {
			s.stages[s.retirePtr].Retire = cycle
		}
		s.retirePtr++
		s.inFlight--
		if s.retirePtr == s.warmBoundary && s.warmBoundary > 0 {
			s.warmEndCycle = cycle // warm-up window fully retired (Options.Warmup)
		}
		if s.retirePtr == s.measureBoundary && s.measureBoundary > 0 {
			s.measureEndCycle = cycle // measurement window fully retired
		}
	}
}
