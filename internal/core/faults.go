package core

import "repro/internal/rb"

// Datapath- and scheduler-level fault injection with paired detection and
// recovery (DESIGN.md §12). Three fault kinds model the in-flight corruptions
// the redundant machine is exposed to:
//
//   - FaultDigitFlip: one digit of a result's redundant binary form flips
//     between production and writeback (a corrupted bypass latch or register
//     file cell). Detected by the mod-3 residue check on the converter path:
//     the producer computes rb.Number.Residue3 from the digits as produced
//     and broadcasts it alongside the vectors; the converter recomputes the
//     residue from the digits it received and flags a mismatch before
//     writeback. Single-digit corruptions are *always* caught (no 2^i is
//     divisible by 3), so recovery — replaying the conversion from the
//     producer's still-held digits — commits the correct value.
//
//   - FaultStaleBypass: the writeback latch captures the destination
//     register's previous architectural value instead of the new result (a
//     bypass mux selecting a stale level). The carried residue describes the
//     *correct* result, so the residue check catches the substitution
//     whenever stale and correct values differ mod 3 (~2/3 of the time); the
//     remainder is caught by the commit-time value compare against the
//     functional reference — the same check the lockstep oracle performs.
//
//   - FaultDropWakeup: one calendar wakeup post is swallowed (a lost wakeup
//     in the event-driven scheduler), leaving its consumer waiting forever.
//     Detected by the no-progress watchdog: after WatchdogWindow cycles
//     without a retirement it scans the schedulers for entries that claim a
//     buffered wakeup the calendar does not hold (sched.Calendar.Has) and
//     re-posts them at their next issueable cycle — falling back to what the
//     poll oracle would have computed — instead of aborting the run.
//
// All injection is confined to the run's committed view and the scheduler's
// event stream; the shared trace is never mutated, and recovery leaves the
// architectural results identical to a fault-free run.

// FaultKind selects a datapath or scheduler fault model.
type FaultKind uint8

const (
	// FaultDigitFlip flips one RB digit of instruction Seq's result in
	// flight (nonzero digit collapses to 0, zero digit becomes +1).
	FaultDigitFlip FaultKind = iota
	// FaultStaleBypass substitutes the destination register's previous
	// architectural value for instruction Seq's result at writeback.
	FaultStaleBypass
	// FaultDropWakeup drops the PostIndex-th calendar wakeup post of the
	// event backend (counted from 0 across the whole run).
	FaultDropWakeup
)

// String names the kind ("digit-flip", "stale-bypass", "drop-wakeup").
func (k FaultKind) String() string {
	switch k {
	case FaultDigitFlip:
		return "digit-flip"
	case FaultStaleBypass:
		return "stale-bypass"
	case FaultDropWakeup:
		return "drop-wakeup"
	}
	return "?"
}

// Fault is one fault to inject into a run.
type Fault struct {
	Kind FaultKind
	// Seq targets the dynamic instruction whose result is corrupted
	// (FaultDigitFlip, FaultStaleBypass).
	Seq int64
	// Digit is the RB digit to flip (FaultDigitFlip).
	Digit int
	// PostIndex is the calendar-post ordinal to drop (FaultDropWakeup).
	PostIndex int64
}

// FaultPlan arms a set of faults for one simulation.
type FaultPlan struct {
	Faults []Fault
	// WatchdogWindow is the no-progress window in cycles before the
	// lost-wakeup watchdog fires (0 = the default, defaultWatchdogWindow).
	WatchdogWindow int64
}

// defaultWatchdogWindow is the stock no-progress window: generous enough
// that no real workload trips it (the slowest legitimate stall is a chain of
// memory-latency misses), small enough that a genuine deadlock surfaces
// quickly.
const defaultWatchdogWindow = 100000

// FaultDetection is the outcome of one injected fault.
type FaultDetection struct {
	Fault Fault
	// Injected reports whether the fault had a site to land on (a targeted
	// Seq that produced a result, a PostIndex the run actually reached).
	Injected bool
	// Masked reports an injected fault that caused no architectural
	// corruption (a stale value identical to the correct one).
	Masked bool
	// Detector names what caught the corruption: "residue" (mod-3 check on
	// the converter path), "oracle" (commit-time value compare), "watchdog"
	// (lost-wakeup scan). Empty = undetected.
	Detector string
	// InjectCycle is when the corruption came into being (end of the
	// producer's final EXE stage; for dropped wakeups, the cycle the wakeup
	// would have fired). DetectCycle is when the detector flagged it.
	InjectCycle, DetectCycle int64
	// Recovered reports that the run committed the correct architectural
	// state anyway (conversion replay, or watchdog re-post).
	Recovered bool
}

// Latency is the detection latency in cycles (DetectCycle - InjectCycle),
// or -1 if the fault was not detected.
func (d *FaultDetection) Latency() int64 {
	if d.Detector == "" {
		return -1
	}
	return d.DetectCycle - d.InjectCycle
}

// FaultOutcome collects every armed fault's detection record, in the order
// the faults were given.
type FaultOutcome struct {
	Detections []FaultDetection
}

// Faults is the outcome of the fault plan the run was given
// (Options.Faults), or nil without one. It is populated as the run
// progresses and is complete when Simulate returns.
func (s *Simulator) Faults() *FaultOutcome { return s.faultOut }

// armFaults installs a fault plan on the simulator (New, Options.Faults).
func (s *Simulator) armFaults(plan FaultPlan) {
	out := &FaultOutcome{Detections: make([]FaultDetection, len(plan.Faults))}
	s.faultOut = out
	s.faultSeqIdx = make(map[int64][]int, len(plan.Faults))
	s.dropPosts = make(map[int64]int, len(plan.Faults))
	for i, f := range plan.Faults {
		out.Detections[i].Fault = f
		switch f.Kind {
		case FaultDigitFlip, FaultStaleBypass:
			s.faultSeqIdx[f.Seq] = append(s.faultSeqIdx[f.Seq], i)
		case FaultDropWakeup:
			s.dropPosts[f.PostIndex] = i
		}
	}
	if plan.WatchdogWindow > 0 {
		s.watchdogWindow = plan.WatchdogWindow
	}
}

// flipRBDigitVec flips one digit of v's redundant binary form and returns
// the corrupted digit vector: a nonzero digit collapses to 0 and a zero
// digit becomes +1, changing the represented value by ±2^digit.
func flipRBDigitVec(v uint64, digit int) rb.Number {
	plus, minus := rb.FromUint(v).Components()
	bit := uint64(1) << uint(digit)
	switch {
	case minus&bit != 0:
		minus &^= bit
	case plus&bit != 0:
		plus &^= bit
	default:
		plus |= bit
	}
	n, err := rb.FromBits(plus, minus)
	if err != nil {
		panic(err) // unreachable: flipping preserves disjointness
	}
	return n
}

// faultStep runs the converter-path detection for any datapath fault
// targeting the instruction about to commit; stale-bypass substitution
// draws from the committed register file before commitCheck writes it.
func (s *Simulator) faultStep(idx int, cycle int64) {
	te := &s.trace[idx]
	for _, di := range s.faultSeqIdx[te.Seq] {
		det := &s.faultOut.Detections[di]
		if !te.HasResult {
			continue // no result to corrupt; never injected
		}
		det.Injected = true
		det.InjectCycle = s.done[idx]
		golden := te.Result
		// The producer computed the residue from the digits as produced;
		// the corruption happens downstream, so the carried residue
		// describes the correct value.
		carried := rb.FromUint(golden).Residue3()
		var received rb.Number
		switch det.Fault.Kind {
		case FaultDigitFlip:
			received = flipRBDigitVec(golden, det.Fault.Digit)
		case FaultStaleBypass:
			d, ok := te.Inst.Dest()
			if !ok {
				det.Injected = false
				continue
			}
			stale := s.commitRegs[d]
			if stale == golden {
				det.Masked = true
				continue
			}
			received = rb.FromUint(stale)
		}
		switch {
		case !received.CheckResidue(carried):
			det.Detector = "residue"
		case received.Uint() != golden:
			// The residue missed (only possible for stale substitution);
			// the commit-time value compare against the functional
			// reference — the oracle's check — catches it.
			det.Detector = "oracle"
		default:
			continue // masked corruption (unreachable for digit flips)
		}
		det.DetectCycle = cycle
		// Detection precedes writeback: recovery replays the conversion
		// from the producer's still-held digits and commits the correct
		// value, so the architectural stream is unchanged.
		det.Recovered = true
	}
}

// postWakeup posts a consumer wakeup into the calendar, unless an armed
// drop-wakeup fault swallows this post ordinal: the entry is then left in
// the queued state with no buffered event — exactly a lost wakeup — for the
// watchdog to find.
func (s *Simulator) postWakeup(t int64, id int32) {
	if s.dropPosts != nil {
		if di, ok := s.dropPosts[s.postCount]; ok {
			det := &s.faultOut.Detections[di]
			if !det.Injected {
				det.Injected = true
				det.InjectCycle = t
				s.postCount++
				return
			}
		}
	}
	s.postCount++
	s.cal.Post(t, id)
}

// PostCount reports the number of calendar wakeup posts the event backend
// attempted (including any swallowed by drop faults). Fault campaigns use a
// fault-free dry run's count to sample drop ordinals deterministically.
func (s *Simulator) PostCount() int64 { return s.postCount }

// watchdogRecover is the lost-wakeup fallback: scan every scheduler's
// resident entries for one that claims a buffered wakeup the calendar does
// not hold, and re-post it at its next issueable cycle — recomputing what
// the poll oracle would have found. Returns the number of entries re-posted;
// 0 means the stall is not a lost wakeup (a genuine deadlock).
func (s *Simulator) watchdogRecover(cycle int64) int {
	if s.backend != BackendEvent {
		return 0
	}
	recovered := 0
	for si := range s.scheds {
		for id := s.scheds[si].head; id != nilID; id = s.pool[id].next {
			u := &s.pool[id]
			if u.state != uopQueued || s.cal.Has(id) {
				continue
			}
			t := s.earliestReadyFrom(u, cycle+1)
			if t < 0 {
				continue
			}
			// Recovery posts directly: the fallback path must not itself
			// be subject to drop faults.
			s.cal.Post(t, id)
			recovered++
		}
	}
	if recovered > 0 {
		s.res.WatchdogRecoveries += int64(recovered)
		if s.faultOut != nil {
			for i := range s.faultOut.Detections {
				det := &s.faultOut.Detections[i]
				if det.Fault.Kind == FaultDropWakeup && det.Injected && det.Detector == "" {
					det.Detector = "watchdog"
					det.DetectCycle = cycle
					det.Recovered = true
				}
			}
		}
	}
	return recovered
}

// faultState is the Simulator's fault-injection bookkeeping, embedded so the
// fault-free hot path pays only a nil check.
type faultState struct {
	faultOut    *FaultOutcome
	faultSeqIdx map[int64][]int // te.Seq -> detection indexes (datapath faults)
	dropPosts   map[int64]int   // post ordinal -> detection index
	postCount   int64
}
