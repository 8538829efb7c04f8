package ckpt

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// serialPass is the reference for FastForward: the same plan run on one
// goroutine, warming through Observe and capturing with Capture.
func serialPass(prog *isa.Program, p Plan) ([]*State, int64, error) {
	hier := mem.MustHierarchy(mem.DefaultConfig())
	pred := branch.New()
	warmer := NewWarmer(hier, pred)
	e := emu.New(prog)
	var states []*State
	var te emu.TraceEntry
	for {
		i := e.InstCount()
		if p.Stop > 0 && i == p.Stop {
			return append(states, Capture(p.Workload, e, hier, pred)), i, nil
		}
		if e.Halted() {
			if p.Stop > 0 {
				return states, i, ErrHalted
			}
			return states, i, nil
		}
		if i >= p.Max {
			return states, i, ErrNoHalt
		}
		if p.Every > 0 && i%p.Every == 0 {
			states = append(states, Capture(p.Workload, e, hier, pred))
		}
		if err := e.StepInto(&te); err != nil {
			return states, i, err
		}
		if p.Every == 0 || p.FFWarm == 0 || i%p.Every >= p.Every-p.FFWarm {
			warmer.Observe(&te)
		}
	}
}

// pipelined runs FastForward over a fresh hierarchy and predictor and
// collects its checkpoints. It fails the test if the emulator stage is still
// running when FastForward returns.
func pipelined(t *testing.T, prog *isa.Program, p Plan, capture func(*State) error) ([]*State, int64, error) {
	t.Helper()
	var states []*State
	w := NewWarmer(mem.MustHierarchy(mem.DefaultConfig()), branch.New())
	n, err := FastForward(prog, w, p, func(st *State) error {
		states = append(states, st)
		if capture != nil {
			return capture(st)
		}
		return nil
	})
	if live := producers.Load(); live != 0 {
		t.Fatalf("%d emulator stages still running after FastForward returned", live)
	}
	return states, n, err
}

// sameStates fails the test unless the two checkpoint lists hash equal
// one for one.
func sameStates(t *testing.T, what string, got, want []*State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d checkpoints, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Workload != want[i].Workload || got[i].Seq() != want[i].Seq() {
			t.Fatalf("%s: checkpoint %d is %s@%d, want %s@%d", what, i,
				got[i].Workload, got[i].Seq(), want[i].Workload, want[i].Seq())
		}
		if got[i].Hash() != want[i].Hash() {
			t.Fatalf("%s: checkpoint %d (inst %d) hashes differently from the serial pass", what, i, got[i].Seq())
		}
	}
}

// faultProgram runs the test loop for iters iterations and then jumps to an
// address outside the program instead of halting.
func faultProgram(t *testing.T, iters int) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(fmt.Sprintf(`
        li   r8, 0x2000
        li   r5, -1
        li   r29, %d
loop:
        ldq  r2, 0(r8)
        addq r2, r29, r2
        stq  r2, 0(r8)
        addq r8, #8, r8
        and  r8, #0x2fff, r8
        subq r29, #1, r29
        bgt  r29, loop
        jmp  r31, (r5)
        halt
`, iters))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFastForwardMatchesSerial: the pipelined pass gives the serial pass's
// checkpoints (every Hash, so warm state included), count and error, for
// periodic captures with and without a warming horizon (strides that do
// and do not line up with the commit batches) and for single captures at
// the stream's start, on a batch boundary and off one. The serial pass
// warms through Observe and the pipeline through Warm, so this also pins
// the two warmer inputs to the same state.
func TestFastForwardMatchesSerial(t *testing.T) {
	prog := testProgram(t, 4000)
	length, err := emu.New(prog).Run(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Plan{
		{Every: 4099},
		{Every: 2 * batchLen},
		{Every: 3000, FFWarm: 700},
		{Every: 3000, FFWarm: 5000},
		{Every: length},
		{Stop: 1},
		{Stop: 2 * batchLen},
		{Stop: 10000},
		{Stop: length},
		{Stop: length + 1},
	} {
		p.Workload, p.Max = "test", 1<<20
		want, wantN, wantErr := serialPass(prog, p)
		got, n, err := pipelined(t, prog, p, nil)
		what := fmt.Sprintf("%+v", p)
		if n != wantN || !errors.Is(err, wantErr) {
			t.Fatalf("%s: got (%d, %v), want (%d, %v)", what, n, err, wantN, wantErr)
		}
		sameStates(t, what, got, want)
	}
}

// TestFastForwardFailures: a fault in the middle of the pass, a program
// that outruns Max, and a program that halts before Stop each end the pass
// with the serial pass's error at its instruction index, after the
// checkpoints the serial pass took before failing; and the emulator stage
// is gone when FastForward returns (pipelined checks).
func TestFastForwardFailures(t *testing.T) {
	prog := testProgram(t, 4000)
	length, err := emu.New(prog).Run(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		prog  *isa.Program
		plan  Plan
		fails bool
	}{
		{"fault", faultProgram(t, 5000), Plan{Max: 1 << 20, Every: 4099}, true},
		{"max", prog, Plan{Max: length - 1, Every: 4099}, true},
		{"max-at-length", prog, Plan{Max: length, Every: 4099}, false},
		{"halt-before-stop", prog, Plan{Max: 1 << 20, Stop: length + 5000}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, wantN, wantErr := serialPass(c.prog, c.plan)
			if (wantErr != nil) != c.fails || len(want) < 2 && c.plan.Every > 0 {
				t.Fatalf("serial pass: %d checkpoints, error %v; the case does not test what it says", len(want), wantErr)
			}
			got, n, err := pipelined(t, c.prog, c.plan, nil)
			if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("got (%d, %v), want (%d, %v)", n, err, wantN, wantErr)
			}
			sameStates(t, c.name, got, want)
		})
	}
	// emu.Run's bound: a program of exactly Max instructions runs.
	if _, n, err := pipelined(t, prog, Plan{Max: length}, nil); err != nil || n != length {
		t.Fatalf("Max = length: got (%d, %v), want (%d, nil)", n, err, length)
	}
	if _, n, err := pipelined(t, prog, Plan{Max: length - 1}, nil); !errors.Is(err, ErrNoHalt) || n != length-1 {
		t.Fatalf("Max = length-1: got (%d, %v), want (%d, ErrNoHalt)", n, err, length-1)
	}
}

// TestFastForwardEarlyReturn: a capture that fails ends the pass at that
// checkpoint with its error, and one that panics unwinds through
// FastForward, as does a panic in the emulator stage; in every case the
// emulator stage is gone when FastForward returns.
func TestFastForwardEarlyReturn(t *testing.T) {
	prog := testProgram(t, 4000)
	plan := Plan{Workload: "test", Max: 1 << 20, Every: 1000}
	stop := errors.New("stop")
	for _, at := range []int{1, 3} {
		got, n, err := pipelined(t, prog, plan, func(*State) error {
			if at--; at == 0 {
				return stop
			}
			return nil
		})
		if err != stop || at != 0 || n != got[len(got)-1].Seq() {
			t.Fatalf("got (%d, %v) after %d checkpoints, want (%d, stop) after the failing one", n, err, len(got), got[len(got)-1].Seq())
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "capture" {
				t.Fatalf("recovered %v, want the capture's panic", r)
			}
			if live := producers.Load(); live != 0 {
				t.Fatalf("%d emulator stages still running after a panic", live)
			}
		}()
		w := NewWarmer(nil, nil)
		_, _ = FastForward(prog, w, plan, func(*State) error { panic("capture") })
	}()
	// A panic in the emulator stage (here: no program) reaches the caller.
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("FastForward returned normally without a program")
			}
			if live := producers.Load(); live != 0 {
				t.Fatalf("%d emulator stages still running after a panic", live)
			}
		}()
		_, _ = FastForward(nil, NewWarmer(nil, nil), plan, func(*State) error { return nil })
	}()
}

// TestCommitLayout pins the record's size: the ring's memory bound and the
// bytes the emulator stage writes per instruction are budgeted on 24.
func TestCommitLayout(t *testing.T) {
	if got := unsafe.Sizeof(Commit{}); got != 24 {
		t.Fatalf("Commit is %d bytes, budgeted at 24", got)
	}
}
