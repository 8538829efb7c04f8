package core

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// TestBuffersReuseIdentical proves a shared Buffers changes nothing: every
// cell of a small sweep produces a Result deeply equal to a fresh-allocation
// run, including when traces of different lengths alternate (stale tails).
func TestBuffersReuseIdentical(t *testing.T) {
	short := loopProgram(t, "li r1, 0", 40, repeatBody("addq r1, #1, r1", 4))
	long := loopProgram(t, `
        li r1, 0
        li r8, 4096`, 300, `
        ldq r2, 0(r8)
        addq r2, #1, r2
        stq r2, 0(r8)
        addq r8, #8, r8
        mulq r1, r2, r3`)
	var traces [][]emu.TraceEntry
	for _, p := range []*isa.Program{short, long} {
		tr, err := emu.Trace(p, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}

	buf := NewBuffers()
	for _, b := range []Backend{BackendEvent, BackendPoll} {
		for round := 0; round < 2; round++ {
			for ti, trace := range traces {
				for _, cfg := range []machine.Config{machine.NewBaseline(4), machine.NewRBFull(8)} {
					want, err := Run(cfg, "w", trace, Options{Backend: b})
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(cfg, "w", trace, Options{Backend: b, Buffers: buf})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s trace %d round %d: buffered result diverges:\n got %+v\nwant %+v",
							cfg.Name, b, ti, round, got, want)
					}
				}
			}
		}
	}
}

// runWindow simulates trace under opt and reads its warm-up/measurement
// split.
func runWindow(cfg machine.Config, trace []emu.TraceEntry, opt Options) (*WindowResult, error) {
	s, err := New(cfg, "w", trace, opt)
	if err != nil {
		return nil, err
	}
	if _, err := s.Simulate(); err != nil {
		return nil, err
	}
	return s.Window(), nil
}

// TestRunWindowSplit checks the warm-up/measurement accounting: the split
// sums to the full run, a zero warm-up reproduces Run exactly, and warming
// state in makes the boundary well defined.
func TestRunWindowSplit(t *testing.T) {
	p := loopProgram(t, "li r1, 0", 200, repeatBody("addq r1, #1, r1", 3))
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewBaseline(4)

	full, err := Run(cfg, "w", trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := runWindow(cfg, trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if zero.MeasuredCycles != full.Cycles || zero.MeasuredInstructions != full.Instructions {
		t.Fatalf("warmup=0 window (%d insts / %d cycles) != full run (%d / %d)",
			zero.MeasuredInstructions, zero.MeasuredCycles, full.Instructions, full.Cycles)
	}

	warm := len(trace) / 3
	wr, err := runWindow(cfg, trace, Options{Warmup: warm})
	if err != nil {
		t.Fatal(err)
	}
	if wr.WarmupInstructions+wr.MeasuredInstructions != full.Instructions {
		t.Fatalf("instruction split %d+%d != %d",
			wr.WarmupInstructions, wr.MeasuredInstructions, full.Instructions)
	}
	if wr.WarmupCycles+wr.MeasuredCycles != full.Cycles {
		t.Fatalf("cycle split %d+%d != %d", wr.WarmupCycles, wr.MeasuredCycles, full.Cycles)
	}
	if wr.WarmupCycles <= 0 || wr.MeasuredCycles <= 0 {
		t.Fatalf("degenerate split: warmup %d cycles, measured %d", wr.WarmupCycles, wr.MeasuredCycles)
	}
	if ipc := wr.MeasuredIPC(); ipc <= 0 {
		t.Fatalf("measured IPC %f", ipc)
	}

	if _, err := runWindow(cfg, trace, Options{Warmup: len(trace) + 1}); err == nil {
		t.Fatal("warmup beyond window accepted")
	}
}

// TestWindowHonorsBackend pins that a windowed run takes its scheduler
// backend from Options like any other run: the poll backend posts no
// calendar wakeups, the event backend does, and both report the same split.
func TestWindowHonorsBackend(t *testing.T) {
	p := loopProgram(t, "li r1, 0", 200, repeatBody("addq r1, #1, r1", 3))
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBLimited(8)
	opt := Options{Warmup: len(trace) / 4, Measure: len(trace) / 2}
	var splits [2]*WindowResult
	for i, b := range []Backend{BackendEvent, BackendPoll} {
		opt.Backend = b
		s, err := New(cfg, "w", trace, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(); err != nil {
			t.Fatal(err)
		}
		if posted := s.PostCount(); (b == BackendPoll) != (posted == 0) {
			t.Errorf("%s window posted %d calendar wakeups", b, posted)
		}
		splits[i] = s.Window()
	}
	if !reflect.DeepEqual(splits[0], splits[1]) {
		t.Errorf("window split diverges across backends:\nevent %+v\npoll  %+v", splits[0], splits[1])
	}
}
