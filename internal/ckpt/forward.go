package ckpt

import (
	"errors"
	"sync/atomic"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Plan says where a fast-forward pass captures checkpoints and which
// instructions it warms.
type Plan struct {
	// Workload names the captured states.
	Workload string
	// Max bounds the pass as emu.Run bounds a run: a program that has
	// committed Max instructions without halting fails with ErrNoHalt.
	Max int64
	// Every, when positive, captures a checkpoint at each multiple of Every
	// instructions (0 included) that the pass reaches before the halt.
	Every int64
	// FFWarm, when positive and Every is, warms only the last FFWarm
	// instructions before each multiple of Every; otherwise the pass warms
	// every instruction.
	FFWarm int64
	// Stop, when positive, ends the pass with a capture once Stop
	// instructions have committed. A program that halts before then fails
	// with ErrHalted.
	Stop int64
}

var (
	// ErrNoHalt reports a program still running at the plan's Max.
	ErrNoHalt = errors.New("ckpt: program exceeded its instruction bound without halting")
	// ErrHalted reports a program that halted before the plan's Stop.
	ErrHalted = errors.New("ckpt: program halted before the stop point")
)

// The pass streams commits in batches of batchLen over a ring of ringLen
// recycled batches: at most ringLen*batchLen*24 bytes (384 KiB) of records
// are in flight, however long the program runs.
const (
	batchLen = 4096
	ringLen  = 4
)

// batch carries the commits the emulator stage produced since the previous
// batch and, in arch, the architectural half of a checkpoint taken after the
// last of them. The final batch of a pass has last set and carries the
// pass's outcome.
type batch struct {
	commits []Commit
	arch    *emu.State
	last    bool
	n       int64
	err     error
	panic   any
}

// producers counts emulator stages that have not yet exited; FastForward
// returns only after its own has, on every path.
var producers atomic.Int64

// FastForward runs prog from its entry on the functional emulator, feeds w
// the committed stream the plan selects, and hands capture each checkpoint
// the plan asks for, in stream order. It returns the number of committed
// instructions: the program's length, or Stop. A pass that fails returns
// the index of the instruction it failed at, with ErrNoHalt, ErrHalted or
// the emulator's error; an error from capture ends the pass and is
// returned with the captured state's instruction count.
//
// The pass is a two-stage pipeline. An emulator goroutine steps the program
// and takes the architectural half of each checkpoint (emu.State, copy on
// write) at the instruction count it is due; the calling goroutine warms
// the hierarchy and predictor from the commits in between and then takes
// the warm half, so each checkpoint joins the two halves at the same point
// of the stream. The warmer sees the same commits in the same order as a
// serial pass would, so the checkpoints are identical to a serial pass's.
// The emulator goroutine has exited by the time FastForward returns.
func FastForward(prog *isa.Program, w *Warmer, p Plan, capture func(*State) error) (int64, error) {
	free := make(chan *batch, ringLen)
	full := make(chan *batch, ringLen)
	for i := 0; i < ringLen; i++ {
		free <- &batch{commits: make([]Commit, 0, batchLen)}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	producers.Add(1)
	go func() {
		defer close(done)
		defer producers.Add(-1)
		emulate(prog, p, free, full, quit)
	}()
	defer func() {
		close(quit)
		<-done
	}()
	for {
		b := <-full
		for _, c := range b.commits {
			w.Warm(c)
		}
		if b.arch != nil {
			st := join(p.Workload, b.arch, w.Hier, w.Pred)
			if err := capture(st); err != nil {
				return st.Seq(), err
			}
		}
		if b.last {
			if b.panic != nil {
				panic(b.panic)
			}
			return b.n, b.err
		}
		b.commits, b.arch = b.commits[:0], nil
		free <- b
	}
}

// emulate is the emulator stage of FastForward. Sends on full never block:
// the ring holds every batch there is.
func emulate(prog *isa.Program, p Plan, free <-chan *batch, full chan<- *batch, quit <-chan struct{}) {
	b := <-free
	// flush hands b to the warm stage and takes the next free batch; false
	// means the warm stage has returned.
	flush := func() bool {
		full <- b
		select {
		case b = <-free:
			return true
		case <-quit:
			return false
		}
	}
	defer func() {
		// A panic belongs to the caller, as it would in a serial pass.
		if r := recover(); r != nil {
			b.last, b.panic = true, r
			full <- b
		}
	}()
	// k is the instruction count modulo Every; the pass warms an
	// instruction when k >= warmFrom.
	var k, warmFrom int64
	if p.Every > 0 && p.FFWarm > 0 {
		warmFrom = p.Every - p.FFWarm
	}
	e := emu.New(prog)
	var te emu.TraceEntry
	for {
		i := e.InstCount()
		if i == p.Stop && p.Stop > 0 {
			b.arch = e.State()
			break
		}
		if e.Halted() {
			if p.Stop > 0 {
				b.err = ErrHalted
			}
			break
		}
		if i >= p.Max {
			b.err = ErrNoHalt
			break
		}
		if k == 0 && p.Every > 0 {
			b.arch = e.State()
			if !flush() {
				return
			}
		}
		if err := e.StepInto(&te); err != nil {
			b.err = err
			break
		}
		if k >= warmFrom {
			b.commits = append(b.commits, commitOf(&te))
			if len(b.commits) == batchLen && !flush() {
				return
			}
		}
		if k++; k == p.Every {
			k = 0
		}
	}
	b.last, b.n = true, e.InstCount()
	full <- b
}
