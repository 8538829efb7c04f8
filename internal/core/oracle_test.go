package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/rb"
)

// oracleProgram builds a loop whose body exercises every architectural fact
// the oracle checks: dependent arithmetic, a store/load round trip, and a
// conditional branch.
func oracleProgram(t *testing.T, iters int) *isa.Program {
	t.Helper()
	return loopProgram(t, "li r10, 4096", iters, `
        addq r2, #7, r2
        subq r2, #3, r3
        xor r3, r2, r4
        stq r4, 16(r10)
        ldq r5, 16(r10)
        addq r5, r2, r2
`)
}

func TestLockstepCleanRun(t *testing.T) {
	p := oracleProgram(t, 50)
	trace := mustTrace(t, p)
	for _, cfg := range []machine.Config{
		machine.NewBaseline(8), machine.NewRBLimited(8),
		machine.NewRBFull(8), machine.NewIdeal(4),
	} {
		s, err := New(cfg, "oracle-clean", decodeTrace(t, trace), Options{Oracle: emu.New(p)})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Simulate()
		if err != nil {
			t.Fatalf("%s: lockstep run diverged: %v", cfg.Name, err)
		}
		if r.Instructions != int64(len(trace)) {
			t.Errorf("%s: committed %d instructions, trace has %d", cfg.Name, r.Instructions, len(trace))
		}
	}
}

// TestLockstepCatchesInjectedFault is the acceptance check for the oracle:
// a single flipped RB digit in one in-flight result must surface as a
// divergence at exactly the faulted instruction, with a pipeline dump.
func TestLockstepCatchesInjectedFault(t *testing.T) {
	p := oracleProgram(t, 50)
	trace := mustTrace(t, p)
	// Pick a mid-trace value-producing instruction to corrupt.
	var faultSeq int64 = -1
	for i := len(trace) / 2; i < len(trace); i++ {
		if trace[i].HasResult {
			faultSeq = trace[i].Seq
			break
		}
	}
	if faultSeq < 0 {
		t.Fatal("no value-producing instruction in the back half of the trace")
	}
	for _, cfg := range []machine.Config{machine.NewRBFull(8), machine.NewBaseline(8)} {
		for _, digit := range []int{0, 17, 63} {
			s, err := New(cfg, "oracle-fault", decodeTrace(t, trace), Options{Oracle: emu.New(p)})
			if err != nil {
				t.Fatal(err)
			}
			s.InjectFault(faultSeq, digit)
			_, err = s.Simulate()
			if err == nil {
				t.Fatalf("%s digit %d: injected fault went undetected", cfg.Name, digit)
			}
			var div *DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("%s digit %d: got non-divergence error %v", cfg.Name, digit, err)
			}
			if div.Seq != faultSeq {
				t.Errorf("%s digit %d: divergence at instruction %d, fault injected at %d",
					cfg.Name, digit, div.Seq, faultSeq)
			}
			if div.Field != "result" {
				t.Errorf("%s digit %d: diverging field %q, want %q", cfg.Name, digit, div.Field, "result")
			}
			if div.Dump == "" {
				t.Errorf("%s digit %d: divergence carries no pipeline dump", cfg.Name, digit)
			}
			if !strings.Contains(err.Error(), "pipeline state") {
				t.Errorf("%s digit %d: error does not include the pipeline dump: %v", cfg.Name, digit, err)
			}
		}
	}
}

func TestPipelineDumpContents(t *testing.T) {
	p := oracleProgram(t, 50)
	trace := mustTrace(t, p)
	s, err := New(machine.NewRBFull(8), "oracle-dump", decodeTrace(t, trace), Options{Oracle: emu.New(p)})
	if err != nil {
		t.Fatal(err)
	}
	faultSeq := trace[len(trace)/2].Seq
	for !trace[faultSeq].HasResult {
		faultSeq++
	}
	s.InjectFault(faultSeq, 5)
	_, err = s.Simulate()
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("expected a divergence, got %v", err)
	}
	for _, want := range []string{"cycle", "retired", "in flight", "scheduler 0"} {
		if !strings.Contains(div.Dump, want) {
			t.Errorf("pipeline dump missing %q:\n%s", want, div.Dump)
		}
	}
}

func TestFlipRBDigitChangesValueByPowerOfTwo(t *testing.T) {
	for _, v := range []uint64{0, 1, ^uint64(0), 0x5555555555555555, 0x8000000000000000} {
		for _, digit := range []int{0, 1, 31, 63} {
			got := flipRBDigit(v, digit)
			if got == v {
				t.Errorf("flipRBDigit(%#x, %d) did not change the value", v, digit)
			}
			diff := got - v
			if neg := v - got; neg < diff {
				diff = neg
			}
			if diff != 1<<uint(digit) {
				t.Errorf("flipRBDigit(%#x, %d) changed value by %#x, want 2^%d", v, digit, diff, digit)
			}
		}
	}
}

func TestInjectFaultRejectsBadDigit(t *testing.T) {
	trace := mustTrace(t, oracleProgram(t, 2))
	s, err := New(machine.NewRBFull(8), "oracle-panic", decodeTrace(t, trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, digit := range []int{-1, rb.Width} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InjectFault(0, %d) did not panic", digit)
				}
			}()
			s.InjectFault(0, digit)
		}()
	}
}
