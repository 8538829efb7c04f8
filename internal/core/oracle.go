package core

import (
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rb"
)

// The commit-time check (Options.Oracle): every instruction the timing
// core commits is replayed, in commit order, on an independent functional
// reference (an internal/emu emulator positioned at the trace's first
// instruction), and the reference's step feeds fault-plan detection, then
// the redundant binary datapath recomputation (datapath.go), then the
// lockstep compare. The paper's architectural-identity claim — the RB
// machines differ from the Baseline only in timing — reduces to this stream
// never diverging: the RB datapath computes the reference's results and
// branch outcomes, and every fact the timing model read from its timing
// trace (PCs, op words, branch outcomes, effective addresses) is the
// reference's. The first divergence from either check aborts the
// simulation with a DivergenceError naming the instruction, the diverging
// architectural fact, and a dump of the pipeline state at the moment of
// detection.

// DivergenceError reports the first committed instruction at which the
// timing core's committed stream and the functional reference disagree.
type DivergenceError struct {
	// Seq is the dynamic instruction number of the divergent instruction.
	Seq int64
	// PC is its instruction index; Inst the instruction itself.
	PC   int
	Inst isa.Instruction
	// Field names the diverging architectural fact ("pc", "next pc",
	// "effective address", "result", "register r5", "memory", ...); a
	// datapath recomputation that disagrees with the reference names the
	// RB datapath ("RB datapath result", "RB datapath branch outcome", ...).
	Field string
	// Got is the timing core's committed value; Want the reference's.
	Got, Want uint64
	// Dump is the pipeline state at the moment the divergence was detected.
	Dump string
}

// Error formats the divergence with its pipeline-state dump.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: lockstep divergence at instruction %d (pc %d: %v): %s = %#x, reference %#x\npipeline state:\n%s",
		e.Seq, e.PC, e.Inst, e.Field, e.Got, e.Want, e.Dump)
}

// InjectFault arms a single transient fault for oracle testing: the result
// of dynamic instruction seq has one digit of its redundant binary form
// flipped as it is written back, modeling a corrupted bypass or datapath
// bit. The timing trace is never mutated; the corruption applies only to
// this run's committed view, where the commit-time check (Options.Oracle)
// must detect it.
func (s *Simulator) InjectFault(seq int64, digit int) {
	if digit < 0 || digit >= rb.Width {
		panic(fmt.Sprintf("core: fault digit %d out of range", digit))
	}
	s.faultSeq = seq
	s.faultDigit = digit
}

// flipRBDigit flips one digit of v's redundant binary form: a nonzero digit
// collapses to 0 and a zero digit becomes +1, changing the value by ±2^digit.
func flipRBDigit(v uint64, digit int) uint64 {
	return flipRBDigitVec(v, digit).Uint()
}

// commitCheck is the commit-time check on the instruction about to retire,
// run when the oracle is armed: it steps the reference, then runs the fault
// step and the datapath, which read commitRegs before the lockstep compare
// writes it.
func (s *Simulator) commitCheck(idx int32, cycle int64) error {
	ref := &s.ref
	if s.oracle.Halted() {
		*ref = emu.TraceEntry{Seq: s.oracle.InstCount(), PC: s.oracle.PC}
		return s.divergence(ref, "commit past reference HALT", uint64(s.dec.pc[idx]), uint64(s.oracle.PC), cycle)
	}
	if err := s.oracle.StepInto(ref); err != nil {
		return fmt.Errorf("core: lockstep reference at instruction %d: %w", s.oracle.InstCount(), err)
	}
	if s.faultOut != nil {
		s.faultStep(ref, idx, cycle)
	}
	if err := s.datapathCheck(ref, cycle); err != nil {
		return err
	}
	return s.lockstep(ref, idx, cycle)
}

// divergence builds the *DivergenceError for the reference step ref.
func (s *Simulator) divergence(ref *emu.TraceEntry, field string, got, want uint64, cycle int64) error {
	return &DivergenceError{
		Seq: ref.Seq, PC: ref.PC, Inst: ref.Inst,
		Field: field, Got: got, Want: want,
		Dump: s.pipelineDump(cycle),
	}
}

// lockstep compares every fact the timing trace supplied for entry idx —
// its PC, op word, branch outcome, next PC and effective address — with the
// reference step ref, then commits the timing core's result (the
// reference's, corrupted only by InjectFault) and compares the register
// file and, at a store, memory. It returns a *DivergenceError on the first
// disagreement.
func (s *Simulator) lockstep(ref *emu.TraceEntry, idx int32, cycle int64) error {
	fail := func(field string, got, want uint64) error {
		return s.divergence(ref, field, got, want, cycle)
	}
	d := s.dec
	op := d.ops[idx]
	if pc := int(d.pc[idx]); pc != ref.PC {
		return fail("pc", uint64(pc), uint64(ref.PC))
	}
	if got, want := op&opInstMask, instOp(&ref.Inst); got != want {
		return fail("op word", uint64(got), uint64(want))
	}
	if op.has(opTaken) != ref.Taken {
		return fail("branch outcome", b2u(op.has(opTaken)), b2u(ref.Taken))
	}
	if next := d.nextPC(idx); next != ref.NextPC {
		return fail("next pc", uint64(next), uint64(ref.NextPC))
	}
	if op.has(opLoad | opStore) {
		ea := d.ea[s.commitMem]
		s.commitMem++
		if ea != ref.EA {
			return fail("effective address", ea, ref.EA)
		}
	}

	committed := ref.Result
	if ref.Seq == s.faultSeq && ref.HasResult {
		committed = flipRBDigit(committed, s.faultDigit)
	}
	if committed != ref.Result {
		return fail("result", committed, ref.Result)
	}

	// Commit the timing core's architectural register view, then compare the
	// whole file against the reference's.
	if d, ok := ref.Inst.Dest(); ok && ref.HasResult {
		s.commitRegs[d] = committed
	}
	for r := 0; r < isa.NumRegs; r++ {
		if s.commitRegs[r] != s.oracle.Regs[r] {
			return fail(fmt.Sprintf("register %v", isa.Reg(r)), s.commitRegs[r], s.oracle.Regs[r])
		}
	}
	if op.has(opStore) {
		size := storeSize(ref.Inst.Op)
		want := s.oracle.Mem.Read(ref.EA, size)
		got := s.commitRegs[ref.Inst.Ra]
		if size < 8 {
			got &= 1<<(8*uint(size)) - 1
		}
		if got != want {
			return fail(fmt.Sprintf("memory[%#x]", ref.EA), got, want)
		}
	}
	return nil
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pipelineDump renders the pipeline state for divergence reports: cycle,
// retirement progress, front-end state, and each scheduler's oldest pending
// entries.
func (s *Simulator) pipelineDump(cycle int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  cycle %d: retired %d/%d, %d in flight, fetch queue %d/%d",
		cycle, s.retirePtr, s.n, s.inFlight, s.fqLen, s.fetchQCap)
	if s.fetchBlockedIdx >= 0 {
		fmt.Fprintf(&b, ", fetch blocked on branch %d", s.fetchBlockedIdx)
	}
	b.WriteByte('\n')
	for i := range s.scheds {
		fmt.Fprintf(&b, "  scheduler %d (cluster %d): %d pending", i, s.clusterOf(i), s.scheds[i].n)
		j := 0
		for id := s.scheds[i].head; id != nilID; id = s.pool[id].next {
			if j >= 4 {
				b.WriteString(" ...")
				break
			}
			u := &s.pool[id]
			if u.wp {
				b.WriteString(" [wrong-path]")
			} else {
				fmt.Fprintf(&b, " [%d pc %d]", u.idx, s.dec.pc[u.idx])
			}
			j++
		}
		b.WriteByte('\n')
	}
	return b.String()
}
