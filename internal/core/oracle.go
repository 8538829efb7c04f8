package core

import (
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rb"
)

// The commit-time check (Options.Oracle): every instruction the timing
// core commits runs fault-plan detection, then the redundant binary
// datapath recomputation (datapath.go), then the lockstep compare — it is
// replayed, in commit order, on an independent functional reference (an
// internal/emu emulator positioned at the trace's first instruction). The
// paper's architectural-identity claim — the RB machines differ from the
// Baseline only in timing — reduces to this stream never diverging: same
// PCs, same results, same effective addresses, same branch outcomes, same
// architectural register file, same memory contents at every store. The
// first divergence from either check aborts the simulation with a
// DivergenceError naming the instruction, the diverging architectural fact,
// and a dump of the pipeline state at the moment of detection.

// DivergenceError reports the first committed instruction at which the
// timing core's committed stream and the functional reference disagree.
type DivergenceError struct {
	// Seq is the dynamic instruction number of the divergent instruction.
	Seq int64
	// PC is its instruction index; Inst the instruction itself.
	PC   int
	Inst isa.Instruction
	// Field names the diverging architectural fact ("result", "pc",
	// "register r5", "memory", ...); a datapath recomputation that
	// disagrees with the trace names the RB datapath ("RB datapath
	// result", "RB datapath branch outcome", ...).
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
// bit. The shared trace is never mutated; the corruption applies only to
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
// run when the oracle or a fault plan is armed: the fault step and the
// datapath read commitRegs before the lockstep compare writes it.
func (s *Simulator) commitCheck(idx int, cycle int64) error {
	if s.faultOut != nil {
		s.faultStep(idx, cycle)
	}
	if s.oracle == nil {
		if te := &s.trace[idx]; te.HasResult {
			if d, ok := te.Inst.Dest(); ok {
				s.commitRegs[d] = te.Result
			}
		}
		return nil
	}
	if err := s.datapathCheck(idx, cycle); err != nil {
		return err
	}
	return s.oracleStep(idx, cycle)
}

// divergence builds the *DivergenceError for trace entry te.
func (s *Simulator) divergence(te *emu.TraceEntry, field string, got, want uint64, cycle int64) error {
	return &DivergenceError{
		Seq: te.Seq, PC: te.PC, Inst: te.Inst,
		Field: field, Got: got, Want: want,
		Dump: s.pipelineDump(cycle),
	}
}

// oracleStep replays the instruction about to commit on the reference
// emulator and cross-checks every architectural fact, after writing the
// committed register file. It returns a *DivergenceError on the first
// disagreement.
func (s *Simulator) oracleStep(idx int, cycle int64) error {
	te := &s.trace[idx]
	fail := func(field string, got, want uint64) error {
		return s.divergence(te, field, got, want, cycle)
	}
	if s.oracle.Halted() {
		return fail("commit past reference HALT", uint64(te.PC), uint64(s.oracle.PC))
	}
	if s.oracle.PC != te.PC {
		return fail("pc", uint64(te.PC), uint64(s.oracle.PC))
	}
	ref, err := s.oracle.Step()
	if err != nil {
		return fmt.Errorf("core: lockstep reference at instruction %d: %w", te.Seq, err)
	}

	committed := te.Result
	if te.Seq == s.faultSeq && te.HasResult {
		committed = flipRBDigit(committed, s.faultDigit)
	}
	if te.HasResult != ref.HasResult {
		return fail("result presence", b2u(te.HasResult), b2u(ref.HasResult))
	}
	if te.HasResult && committed != ref.Result {
		return fail("result", committed, ref.Result)
	}
	cls := isa.ClassOf(te.Inst.Op)
	if cls.IsMemory() && te.EA != ref.EA {
		return fail("effective address", te.EA, ref.EA)
	}
	if cls.IsBranch() && te.Taken != ref.Taken {
		return fail("branch outcome", b2u(te.Taken), b2u(ref.Taken))
	}
	if te.NextPC != ref.NextPC {
		return fail("next pc", uint64(te.NextPC), uint64(ref.NextPC))
	}

	// Commit the timing core's architectural register view, then compare the
	// whole file against the reference's.
	if d, ok := te.Inst.Dest(); ok && te.HasResult {
		s.commitRegs[d] = committed
	}
	for r := 0; r < isa.NumRegs; r++ {
		if s.commitRegs[r] != s.oracle.Regs[r] {
			return fail(fmt.Sprintf("register %v", isa.Reg(r)), s.commitRegs[r], s.oracle.Regs[r])
		}
	}
	if cls.IsStore {
		size := storeSize(te.Inst.Op)
		want := s.oracle.Mem.Read(te.EA, size)
		got := s.commitRegs[te.Inst.Ra]
		if size < 8 {
			got &= 1<<(8*uint(size)) - 1
		}
		if got != want {
			return fail(fmt.Sprintf("memory[%#x]", te.EA), got, want)
		}
	}
	return nil
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
				fmt.Fprintf(&b, " [%d %v]", u.idx, s.trace[u.idx].Inst.Op)
			}
			j++
		}
		b.WriteByte('\n')
	}
	return b.String()
}
