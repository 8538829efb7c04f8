// Package core is the cycle-level out-of-order execution core simulator: the
// machine of paper §5.1. It consumes the committed dynamic instruction
// stream from the functional emulator and models the paper's pipeline —
// 6 fetch/decode stages, 2 rename stages, select-2 wakeup-array schedulers
// over a 128-entry window, 2-cycle register file read, homogeneous pipelined
// functional units with the Table 3 latencies, redundant binary forwarding
// with format-conversion delays, limited bypass networks with availability
// holes, clustered execution for the 8-wide machine, the Table 2 cache
// hierarchy with SAM-indexed data cache, and a hybrid branch predictor whose
// mispredictions flush and refill the front end.
//
// There is one way in: New(cfg, workload, trace, Options) builds a
// simulator and Simulate runs it; Run is the two in one, and Buffers.Run is
// Run on a reused buffer set. Options carries everything a run can vary —
// the scheduler backend, the program image, a stage timeline to fill, the
// warm-up/measurement split with checkpoint-warmed cache and predictor
// state, and the buffers. Callers that arm the lockstep oracle or a fault
// plan do so on the simulator New returns, before Simulate; a windowed run's
// split is read afterwards with Simulator.Window.
//
// Substitution note (see DESIGN.md §3): simulation is driven by the
// committed trace. By default wrong-path instructions do not contend for
// resources, but every misprediction still costs the full front-end refill
// from the resolving branch. With machine.Config.ModelWrongPath set and the
// program image given in Options.Program, fetch follows the predicted wrong
// path, whose instructions do consume fetch, window, select and cache
// resources until the branch resolves.
//
// Two scheduler backends implement the wakeup/select logic (DESIGN.md
// "Simulator performance"): the default event-driven backend posts wakeup
// events into a calendar queue when producers are granted and skips cycles
// in which no pipeline stage can make progress, while the poll backend
// re-evaluates every waiting entry each cycle. They are proven to produce
// bit-identical results by the internal/check "backends" layer.
package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/bypass"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// Backend selects the wakeup/select implementation.
type Backend uint8

const (
	// BackendEvent is the event-driven scheduler: producer grants post
	// wakeup events into a calendar queue, consumers track a count of
	// unsatisfied sources, and the main loop skips dead cycles. The default.
	BackendEvent Backend = iota
	// BackendPoll is the original poll-based scheduler, kept as the oracle
	// the event-driven backend is differentially verified against: every
	// waiting entry re-evaluates its readiness every cycle.
	BackendPoll
)

// String names the backend ("event" or "poll").
func (b Backend) String() string {
	switch b {
	case BackendEvent:
		return "event"
	case BackendPoll:
		return "poll"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend parses a -sched flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "event":
		return BackendEvent, nil
	case "poll":
		return BackendPoll, nil
	}
	return 0, fmt.Errorf("core: unknown scheduler backend %q (want event or poll)", s)
}

// prodRecord describes when and how one instruction's result becomes
// available to consumers.
type prodRecord struct {
	// t is the cycle the result exists (end of the final EXE stage);
	// -1 until the producer issues.
	t int64
	// rbSched / tcSched are availability schedules (offsets from t) for
	// RB-capable and TC-requiring consumers.
	rbSched, tcSched bypass.Schedule
	// cluster is the producing cluster.
	cluster int8
	// outRB marks a redundant binary result (Table 1 output format).
	outRB bool
}

// nilID terminates every intrusive uop list.
const nilID = int32(-1)

// uop lifecycle states within the slab.
const (
	uopFree    uint8 = iota // on the free list
	uopWaiting              // resident; event backend: unsatisfied sources remain
	uopQueued               // event backend: wakeup posted in the calendar
	uopReady                // event backend: in its scheduler's ready list
	uopDead                 // squashed while queued; freed at calendar pop
)

// uop is one in-flight instruction in the window. Uops live in a slab
// allocated once per run and are threaded through intrusive lists (per
// scheduler residency, per-scheduler ready list, per-producer waiter
// chains), so the steady-state issue loop allocates and copies nothing.
type uop struct {
	idx        int32 // trace index; -1 for wrong-path instructions
	cluster    int8
	mispredict bool
	wp         bool // wrong-path instruction (squashed at branch resolution)
	isLoad     bool
	isStore    bool
	latency    machine.LatencyEntry
	class      isa.LatencyClass
	minExe     int64 // earliest EXE-start cycle (dispatch + schedule + RF read)
	nsrc       int8
	src        [3]int32 // producer trace indices; -1 = ready at dispatch
	srcTC      [3]bool  // operand requires the TC schedule
	memDep     int32    // older memory instruction this one must follow; -1 = none
	wpEA       uint64   // wrong-path effective address (loads only)

	// Intrusive bookkeeping.
	seq        int64    // global dispatch order (age for oldest-first select)
	sched      int32    // owning scheduler
	state      uint8    // uopFree / uopWaiting / uopQueued / uopReady / uopDead
	pending    int8     // event backend: unsatisfied wakeup sources
	prev, next int32    // scheduler resident list (age order); next doubles as the free-list link
	rdyPrev    int32    // scheduler ready list (age order)
	rdyNext    int32    //
	waitNext   [4]int32 // per-source waiter-chain links (slot 3 = memory dependence)
}

// schedList is one scheduler's intrusive state: the resident entries in age
// order (both backends) and, for the event backend, the subset that is ready
// to issue this cycle.
type schedList struct {
	head, tail int32
	n          int
	rdyHead    int32
	rdyTail    int32
	rdyN       int
}

type fetchEntry struct {
	idx        int32 // trace index; -1 for wrong-path instructions
	fetchCycle int64
	mispredict bool
	wpOp       isa.Op // opcode for wrong-path entries
	wpIsLoad   bool
	wpEA       uint64 // wrong-path effective address
}

// calendarHorizon is the ring span of the wakeup calendar; events farther
// out (consumers of loads that missed to memory) spill to its overflow heap.
const calendarHorizon = 512

// Simulator runs one machine configuration over one trace.
type Simulator struct {
	cfg     machine.Config
	backend Backend
	trace   []emu.TraceEntry
	hier    *mem.Hierarchy
	pred    *branch.Predictor

	prod        []prodRecord
	done        []int64 // retire-eligibility cycle per trace index; -1 = not finished
	dispCluster []int8  // cluster each dispatched instruction landed in; -1 = not dispatched

	// The uop slab and intrusive scheduler lists.
	pool     []uop
	freeHead int32
	seqCtr   int64
	scheds   []schedList

	// Event-driven wakeup state: the calendar queue of future ready cycles,
	// the scratch buffer its buckets drain into, per-producer waiter chains
	// (packed id<<2|slot refs into the slab), and the epoch counter that
	// detects mid-issue wrong-path squashes.
	cal         *sched.Calendar
	calBuf      []int32
	waiterHead  []int32
	squashEpoch int64

	// fetchQ is a fixed-capacity ring buffer (allocated once in New).
	fetchQ    []fetchEntry
	fqHead    int
	fqLen     int
	fetchQCap int

	nextFetch        int32
	fetchBlockedIdx  int32 // trace index of unresolved mispredicted branch; -1 = none
	fetchBlockedTill int64
	lastFetchLine    int64
	steerCount       int64
	steerCountTC     int64 // separate stream when class steering is enabled

	retirePtr int32
	inFlight  int

	// Wrong-path state (machine.Config.ModelWrongPath). shadowRegs and
	// shadowMem track architectural state in fetch order so the wrong path
	// executes with real values; wpRegs/wpOverlay hold the speculative state
	// while a wrong path is active.
	prog        *isa.Program
	wpPC        int
	wpInFlight  int
	fetchQHasWP bool
	shadowRegs  [isa.NumRegs]uint64
	shadowMem   *emu.Memory
	wpRegs      [isa.NumRegs]uint64
	wpOverlay   map[uint64]byte

	res *Result

	// Lockstep oracle state (EnableOracle): a functional reference emulator
	// stepped once per committed instruction, the committed architectural
	// register view it is compared against, and the first divergence found.
	// faultSeq/faultDigit arm a single injected write-back fault
	// (InjectFault) the oracle must catch; faultSeq -1 = none.
	oracle     *emu.Emulator
	oracleRegs [isa.NumRegs]uint64
	oracleErr  error
	faultSeq   int64
	faultDigit int

	// stages captures per-instruction pipeline timing when the caller
	// supplies Options.Stages (used by the pipeline-diagram renderer).
	stages []StageRecord

	// Fault-injection state (ArmFaults) and the no-progress window before
	// the lost-wakeup watchdog fires.
	faultState
	watchdogWindow int64

	// Redundant binary datapath state (DatapathCheck).
	dpRegs    [isa.NumRegs]uint64
	dpRB      [isa.NumRegs]rbVal
	dpEnabled bool

	// buf supplied the per-run slices above and receives any regrown
	// backing arrays when the run finishes (see Buffers).
	buf *Buffers

	// Warm-up/measurement split (Options.Warmup/Measure): retiring
	// instruction index warmBoundary records its cycle in warmEndCycle, and
	// likewise measureBoundary in measureEndCycle. 0 = no split.
	warmBoundary    int32
	warmEndCycle    int64
	measureBoundary int32
	measureEndCycle int64
}

// StageRecord is one instruction's pipeline timing: the cycle it was
// fetched, entered the window, started execution, finished its final
// execution stage, and retired. Unreached stages are -1.
type StageRecord struct {
	Fetch, Dispatch, Issue, Done, Retire int64
}

// Options configures one simulation. The zero value runs the event-driven
// backend over the trace alone, cold, on fresh buffers.
type Options struct {
	// Backend selects the scheduler backend (zero value: BackendEvent).
	Backend Backend
	// Program is the static image the trace was captured from. Wrong-path
	// fetch (machine.Config.ModelWrongPath) needs it; without it a
	// misprediction stalls fetch until the branch resolves.
	Program *isa.Program
	// Stages, when non-nil, must hold one record per trace entry; the run
	// fills in each instruction's pipeline timing (unreached stages stay
	// -1), for pipeline-diagram rendering (paper Figures 5 and 7).
	Stages []StageRecord
	// Warmup is how many leading trace entries are detailed warm-up: they
	// execute in full detail but their cycles are reported separately (see
	// Simulator.Window) so the measurement excludes cold-start transients.
	// Must be in [0, len(trace)].
	Warmup int
	// Measure bounds the measurement window: trace entries beyond
	// Warmup+Measure are cooldown — simulated in full detail so the
	// measurement boundary retires under steady fetch pressure, but excluded
	// from the measured cycles (otherwise every window would charge a full
	// pipeline drain to its tail, inflating CPI relative to a long run that
	// drains once). 0 measures to the end of the trace, drain included.
	Measure int
	// Hier, when non-nil, pre-warms the cache hierarchy from checkpointed
	// state (geometries must match the config's; mismatches leave it cold).
	Hier *mem.HierState
	// Pred, when non-nil, pre-warms the branch predictor.
	Pred *branch.PredictorState
	// Buffers supplies the per-run allocations; nil takes a fresh set.
	Buffers *Buffers
}

// New builds a simulator for a configuration and trace. It is the only
// constructor: Run, Buffers.Run and every caller that arms the oracle or a
// fault plan before Simulate go through it.
func New(cfg machine.Config, workload string, trace []emu.TraceEntry, opt Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(trace)
	if opt.Warmup < 0 || opt.Warmup > n {
		return nil, fmt.Errorf("core: warmup %d outside window of %d instructions", opt.Warmup, n)
	}
	if opt.Measure < 0 || (opt.Measure > 0 && opt.Warmup+opt.Measure > n) {
		return nil, fmt.Errorf("core: measurement %d+%d outside window of %d instructions", opt.Warmup, opt.Measure, n)
	}
	if opt.Stages != nil && len(opt.Stages) != n {
		return nil, fmt.Errorf("core: %d stage records for %d instructions", len(opt.Stages), n)
	}
	buf := opt.Buffers
	if buf == nil {
		buf = NewBuffers()
	}
	s := &Simulator{
		cfg:             cfg,
		backend:         opt.Backend,
		trace:           trace,
		scheds:          make([]schedList, cfg.NumSchedulers),
		freeHead:        nilID,
		fetchQCap:       int(cfg.FrontLatency+2) * cfg.FrontWidth,
		fetchBlockedIdx: -1,
		lastFetchLine:   -1,
		prog:            opt.Program,
		wpPC:            -1,
		faultSeq:        -1,
		stages:          opt.Stages,
		watchdogWindow:  defaultWatchdogWindow,
		res:             &Result{Machine: cfg.Name, Workload: workload},
		dpEnabled:       cfg.DatapathCheck,
		buf:             buf,
		warmBoundary:    int32(opt.Warmup),
	}
	if opt.Measure > 0 && opt.Warmup+opt.Measure < n {
		s.measureBoundary = int32(opt.Warmup + opt.Measure)
	}
	s.hier = buf.hierarchy(cfg.Mem)
	s.pred = buf.predictor()
	if opt.Hier != nil {
		s.hier.SetState(*opt.Hier)
	}
	if opt.Pred != nil {
		s.pred.SetState(opt.Pred)
	}
	buf.prod = grown(buf.prod, n)
	clear(buf.prod) // stale schedules/flags from the previous run
	buf.done = grown(buf.done, n)
	buf.dispCluster = grown(buf.dispCluster, n)
	buf.fetchQ = grown(buf.fetchQ, s.fetchQCap)
	// Slab-allocate the window once; squashed wrong-path entries can
	// briefly outlive their window slot while awaiting their calendar pop,
	// hence the slack (the slab still grows on demand if it ever runs dry).
	if slabCap := cfg.WindowSize + 2*cfg.FrontWidth; cap(buf.pool) < slabCap {
		buf.pool = make([]uop, 0, slabCap)
	}
	s.prod, s.done, s.dispCluster = buf.prod, buf.done, buf.dispCluster
	s.fetchQ = buf.fetchQ
	s.pool = buf.pool[:0]
	for i := range s.scheds {
		s.scheds[i] = schedList{head: nilID, tail: nilID, rdyHead: nilID, rdyTail: nilID}
	}
	for i := range s.prod {
		s.prod[i].t = -1
		s.done[i] = -1
		s.dispCluster[i] = -1
	}
	for i := range s.stages {
		s.stages[i] = StageRecord{Fetch: -1, Dispatch: -1, Issue: -1, Done: -1, Retire: -1}
	}
	if s.prog != nil && cfg.ModelWrongPath {
		s.shadowMem = emu.NewMemory()
		for addr, bytes := range s.prog.Data {
			for i, b := range bytes {
				s.shadowMem.StoreByte(addr+uint64(i), b)
			}
		}
		s.wpOverlay = make(map[uint64]byte)
	}
	return s, nil
}

// Run builds a simulator with New and simulates the trace to completion.
func Run(cfg machine.Config, workload string, trace []emu.TraceEntry, opt Options) (*Result, error) {
	s, err := New(cfg, workload, trace, opt)
	if err != nil {
		return nil, err
	}
	return s.Simulate()
}

// clusterOf maps a scheduler to its cluster.
func (s *Simulator) clusterOf(sched int) int8 {
	perCluster := s.cfg.NumSchedulers / s.cfg.Clusters
	return int8(sched / perCluster)
}

// --- slab and intrusive list plumbing ---------------------------------------

// allocUop takes a slot from the free list (growing the slab only if a burst
// of squashed-but-queued entries exhausted the slack).
func (s *Simulator) allocUop() int32 {
	if s.freeHead != nilID {
		id := s.freeHead
		s.freeHead = s.pool[id].next
		return id
	}
	s.pool = append(s.pool, uop{})
	return int32(len(s.pool) - 1)
}

// freeUop returns a slot to the free list.
func (s *Simulator) freeUop(id int32) {
	u := &s.pool[id]
	u.state = uopFree
	u.next = s.freeHead
	s.freeHead = id
}

// residentPush appends a uop to its scheduler's resident list (dispatch
// order == age order).
func (s *Simulator) residentPush(si int, id int32) {
	l := &s.scheds[si]
	u := &s.pool[id]
	u.prev, u.next = l.tail, nilID
	if l.tail != nilID {
		s.pool[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
	l.n++
}

// residentRemove unlinks a uop from its scheduler's resident list.
func (s *Simulator) residentRemove(si int, id int32) {
	l := &s.scheds[si]
	u := &s.pool[id]
	if u.prev != nilID {
		s.pool[u.prev].next = u.next
	} else {
		l.head = u.next
	}
	if u.next != nilID {
		s.pool[u.next].prev = u.prev
	} else {
		l.tail = u.prev
	}
	u.prev, u.next = nilID, nilID
	l.n--
}

// readyInsert places a woken uop into its scheduler's ready list keeping age
// order (woken entries are usually the youngest, so the scan from the tail
// is short).
func (s *Simulator) readyInsert(si int, id int32) {
	l := &s.scheds[si]
	u := &s.pool[id]
	at := l.rdyTail
	for at != nilID && s.pool[at].seq > u.seq {
		at = s.pool[at].rdyPrev
	}
	if at == nilID { // new head
		u.rdyPrev, u.rdyNext = nilID, l.rdyHead
		if l.rdyHead != nilID {
			s.pool[l.rdyHead].rdyPrev = id
		} else {
			l.rdyTail = id
		}
		l.rdyHead = id
	} else {
		u.rdyPrev, u.rdyNext = at, s.pool[at].rdyNext
		if s.pool[at].rdyNext != nilID {
			s.pool[s.pool[at].rdyNext].rdyPrev = id
		} else {
			l.rdyTail = id
		}
		s.pool[at].rdyNext = id
	}
	l.rdyN++
}

// readyRemove unlinks a uop from its scheduler's ready list.
func (s *Simulator) readyRemove(si int, id int32) {
	l := &s.scheds[si]
	u := &s.pool[id]
	if u.rdyPrev != nilID {
		s.pool[u.rdyPrev].rdyNext = u.rdyNext
	} else {
		l.rdyHead = u.rdyNext
	}
	if u.rdyNext != nilID {
		s.pool[u.rdyNext].rdyPrev = u.rdyPrev
	} else {
		l.rdyTail = u.rdyPrev
	}
	u.rdyPrev, u.rdyNext = nilID, nilID
	l.rdyN--
}

// --- fetch-queue ring --------------------------------------------------------

func (s *Simulator) fqPush(fe fetchEntry) {
	s.fetchQ[(s.fqHead+s.fqLen)%s.fetchQCap] = fe
	s.fqLen++
}

func (s *Simulator) fqFront() *fetchEntry {
	return &s.fetchQ[s.fqHead]
}

func (s *Simulator) fqPop() {
	s.fqHead = (s.fqHead + 1) % s.fetchQCap
	s.fqLen--
}

// fqFilterWP compacts the ring, dropping wrong-path entries.
func (s *Simulator) fqFilterWP() {
	kept := 0
	for i := 0; i < s.fqLen; i++ {
		fe := s.fetchQ[(s.fqHead+i)%s.fetchQCap]
		if fe.idx >= 0 {
			s.fetchQ[(s.fqHead+kept)%s.fetchQCap] = fe
			kept++
		}
	}
	s.fqLen = kept
}

// Simulate runs the main cycle loop. The event-driven backend additionally
// skips dead cycles: when no scheduler has a ready entry, no wakeup event is
// due, the front end is stalled or drained, and no retirement is pending,
// the loop jumps straight to the next cycle at which any stage can act.
func (s *Simulator) Simulate() (*Result, error) {
	n := int32(len(s.trace))
	if n == 0 {
		return s.res, nil
	}
	// Precompute per-entry dependence and classification info.
	srcIdx, srcTC, nsrc, memDep := s.buildDependences()
	if s.backend == BackendEvent {
		s.cal = sched.NewCalendar(calendarHorizon)
		if cap(s.buf.calBuf) == 0 {
			s.buf.calBuf = make([]int32, 0, s.cfg.FrontWidth*4)
		}
		s.calBuf = s.buf.calBuf[:0]
		s.buf.waiterHead = grown(s.buf.waiterHead, len(s.trace))
		s.waiterHead = s.buf.waiterHead
		for i := range s.waiterHead {
			s.waiterHead[i] = nilID
		}
	}

	var cycle int64
	lastProgress := int64(0)
	lastRetired := int32(0)

	for s.retirePtr < n {
		s.fetch(cycle)
		s.dispatch(cycle, srcIdx, srcTC, nsrc, memDep)
		if s.backend == BackendEvent {
			s.issueEvent(cycle)
		} else {
			s.issuePoll(cycle)
		}
		s.retire(cycle)
		if s.oracleErr != nil {
			return nil, s.oracleErr
		}
		s.res.OccupancySum += int64(s.inFlight)

		if s.retirePtr != lastRetired {
			lastRetired = s.retirePtr
			lastProgress = cycle
		} else if cycle-lastProgress > s.watchdogWindow {
			// The watchdog: before declaring deadlock, check for entries
			// whose wakeup was lost and re-post them (the poll-oracle
			// fallback). Only an unrecoverable stall aborts the run.
			if s.watchdogRecover(cycle) == 0 {
				return nil, fmt.Errorf("core: no retirement progress for %d cycles at cycle %d (retired %d/%d)",
					s.watchdogWindow, cycle, s.retirePtr, n)
			}
			lastProgress = cycle
		}
		if s.backend == BackendEvent && s.retirePtr < n {
			next := s.nextActiveCycle(cycle)
			if next < 0 || next > lastProgress+s.watchdogWindow+1 {
				// No wakeup will ever fire (or not before the watchdog): step
				// to the cycle at which the no-progress check trips, exactly
				// as the polling loop would.
				next = lastProgress + s.watchdogWindow + 1
			}
			// Nothing dispatches or retires in the skipped cycles, so window
			// occupancy is constant across them.
			s.res.OccupancySum += int64(s.inFlight) * (next - cycle - 1)
			cycle = next
		} else {
			cycle++
		}
	}
	s.res.Cycles = cycle
	s.res.Instructions = int64(n)
	s.res.L1I = s.hier.L1I().Stats()
	s.res.L1D = s.hier.L1D().Stats()
	s.res.L2 = s.hier.L2().Stats()
	for _, te := range s.trace {
		s.res.Table1Counts[isa.ClassOf(te.Inst.Op).Row]++
	}
	// Hand regrown backing arrays back for the next run.
	s.buf.pool = s.pool
	s.buf.calBuf = s.calBuf
	return s.res, nil
}

// nextActiveCycle returns the earliest cycle after `cycle` at which any
// pipeline stage can make progress, or -1 if no such cycle exists (a
// genuine deadlock, surfaced through the no-progress watchdog). Skipping is
// sound because every state change in a dead cycle is impossible by
// construction: issue requires a ready entry or a calendar event, retire
// requires an executed instruction at the head, and fetch/dispatch
// eligibility is computed exactly below.
func (s *Simulator) nextActiveCycle(cycle int64) int64 {
	next := int64(-1)
	upd := func(c int64) {
		if c <= cycle {
			c = cycle + 1
		}
		if next < 0 || c < next {
			next = c
		}
	}
	// Ready entries left over from select contention re-arm for cycle+1.
	for si := range s.scheds {
		if s.scheds[si].rdyN > 0 {
			upd(cycle + 1)
			break
		}
	}
	// Posted wakeup events.
	if ev := s.cal.NextEvent(cycle + 1); ev >= 0 {
		upd(ev)
	}
	// In-order retirement: the head instruction retires the cycle after its
	// final EXE stage (if not yet executed, its grant is a calendar event).
	if s.retirePtr < int32(len(s.trace)) {
		if d := s.done[s.retirePtr]; d >= 0 {
			upd(d + 1)
		}
	}
	// Dispatch: the queue head leaves fetch/decode/rename at
	// fetchCycle+FrontLatency. A full window is excluded here — it reopens
	// only at a retirement, which is already a candidate above (likewise a
	// full scheduler reopens only at a grant).
	if s.fqLen > 0 && s.inFlight < s.cfg.WindowSize {
		upd(s.fqFront().fetchCycle + s.cfg.FrontLatency)
	}
	// Fetch.
	switch {
	case s.fetchBlockedTill > cycle:
		// Stalled on an I-cache miss or a just-resolved misprediction's
		// front-end refill.
		upd(s.fetchBlockedTill)
	case s.fetchBlockedIdx >= 0:
		// Waiting for a mispredicted branch to resolve (covered by its
		// grant event) — unless wrong-path fetch is active.
		if s.cfg.ModelWrongPath && s.prog != nil && s.wpPC >= 0 && s.fqLen < s.fetchQCap {
			upd(cycle + 1)
		}
	case s.nextFetch < int32(len(s.trace)) && s.fqLen < s.fetchQCap:
		upd(cycle + 1)
	}
	return next
}

// buildDependences computes, for every trace entry, the trace indices of the
// producers of its register sources, whether each operand requires the
// 2's-complement schedule, and — when memory dependences are modeled — the
// most recent older store a load or store must follow (computed from the
// trace's exact effective addresses at quadword granularity; real hardware
// would discover the same orderings in its load/store queue).
func (s *Simulator) buildDependences() (srcIdx [][3]int32, srcTC [][3]bool, nsrc []int8, memDep []int32) {
	n := len(s.trace)
	// Every element read is written first (nsrc/memDep are fully assigned;
	// srcIdx/srcTC are read only below nsrc), so reuse without clearing.
	s.buf.srcIdx = grown(s.buf.srcIdx, n)
	s.buf.srcTC = grown(s.buf.srcTC, n)
	s.buf.nsrc = grown(s.buf.nsrc, n)
	s.buf.memDep = grown(s.buf.memDep, n)
	srcIdx, srcTC, nsrc, memDep = s.buf.srcIdx, s.buf.srcTC, s.buf.nsrc, s.buf.memDep
	if s.buf.lastStore == nil {
		s.buf.lastStore = make(map[uint64]int32)
	} else {
		clear(s.buf.lastStore)
	}
	lastStore := s.buf.lastStore
	var lastWriter [isa.NumRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	var regs [4]isa.Reg
	for i, te := range s.trace {
		cls := te.Inst.EffectiveClass()
		srcs := te.Inst.Srcs(regs[:0])
		k := 0
		for si, r := range srcs {
			p := lastWriter[r]
			if p < 0 {
				continue // initial register state: always ready
			}
			srcIdx[i][k] = p
			// An operand needs the TC schedule when the consuming unit
			// requires 2's complement (Table 1 In=TC) or it is store data
			// (Table 3: "3 for stores").
			needTC := cls.In == isa.FormatTC || (cls.IsStore && si == 0)
			srcTC[i][k] = needTC
			k++
		}
		nsrc[i] = int8(k)
		memDep[i] = -1
		if s.cfg.MemoryDependence && cls.IsMemory() {
			q0 := te.EA >> 3
			q1 := (te.EA + 7) >> 3
			if p, ok := lastStore[q0]; ok {
				memDep[i] = p
			}
			if p, ok := lastStore[q1]; ok && p > memDep[i] {
				memDep[i] = p
			}
			if cls.IsStore {
				lastStore[q0] = int32(i)
				lastStore[q1] = int32(i)
			}
		}
		if d, ok := te.Inst.Dest(); ok {
			lastWriter[d] = int32(i)
		}
	}
	return srcIdx, srcTC, nsrc, memDep
}
