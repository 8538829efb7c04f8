package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// figureMachines are the machines of Figures 9, 11, 13 and 14: every model
// at both widths (Figure 13 is RB-full-8) and the Ideal machine under each
// limited bypass network.
func figureMachines() []machine.Config {
	cfgs := append(machine.All(8), machine.All(4)...)
	for _, width := range []int{8, 4} {
		for _, bp := range experiments.Figure14Configs() {
			cfgs = append(cfgs, machine.NewIdealLimited(width, bp))
		}
	}
	return cfgs
}

// runStaged simulates trace under opt, capturing the stage timeline, and
// returns the result, the timeline and the warm-up/measurement split.
func runStaged(t *testing.T, cfg machine.Config, trace []emu.TraceEntry, opt core.Options) (*core.Result, []core.StageRecord, *core.WindowResult) {
	t.Helper()
	opt.Stages = make([]core.StageRecord, len(trace))
	s, err := core.New(cfg, "w", trace, opt)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	r, err := s.Simulate()
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return r, opt.Stages, s.Window()
}

// requireSameRun runs cfg over trace twice — decoding per run, and on the
// shared decode with reused buffers as the harness does — and requires
// bit-identical results, stage timelines and window splits.
func requireSameRun(t *testing.T, cfg machine.Config, trace []emu.TraceEntry, dec *core.Decoded, buf *core.Buffers, opt core.Options) {
	t.Helper()
	want, wantSt, wantWin := runStaged(t, cfg, trace, opt)
	opt.Decoded, opt.Buffers = dec, buf
	got, gotSt, gotWin := runStaged(t, cfg, trace, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s: shared decode diverges:\n got %+v\nwant %+v", cfg.Name, opt.Backend, got, want)
	}
	for i := range wantSt {
		if gotSt[i] != wantSt[i] {
			t.Fatalf("%s/%s: stage timeline diverges at instruction %d: shared %+v, per-run %+v",
				cfg.Name, opt.Backend, i, gotSt[i], wantSt[i])
		}
	}
	gotWin.Result, wantWin.Result = nil, nil
	if *gotWin != *wantWin {
		t.Fatalf("%s/%s: window split diverges: shared %+v, per-run %+v", cfg.Name, opt.Backend, gotWin, wantWin)
	}
}

// TestSharedDecodeMatchesPerRun is the differential gate for the shared
// decode: a run on a workload's cached Decoded must equal a run that decodes
// its own trace, for both backends and every figure machine, with memory
// dependences off, and over a warm-up/measurement window. A -race build
// still runs every machine, each on one of the three workloads.
func TestSharedDecodeMatchesPerRun(t *testing.T) {
	backends := []core.Backend{core.BackendEvent, core.BackendPoll}
	buf := core.NewBuffers()
	for wi, name := range []string{"gcc", "gcc00", "eon"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		trace, err := w.Trace()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := w.Decoded()
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range figureMachines() {
			if raceBuild && ci%3 != wi {
				continue // under -race each machine runs on one of the workloads
			}
			for _, b := range backends {
				requireSameRun(t, cfg, trace, dec, buf, core.Options{Backend: b})
			}
		}
	}

	w, _ := workload.ByName("compress")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	noMem := machine.NewRBLimited(8)
	noMem.Name += "-nomemdep"
	noMem.MemoryDependence = false
	for _, b := range backends {
		requireSameRun(t, noMem, trace, dec, buf, core.Options{Backend: b})
	}

	// A sampled window decodes on its own slice; a shared decode of that
	// slice must agree with the per-run one, split included.
	start := len(trace) / 3
	window := trace[start : start+6000]
	winDec := core.Decode(window)
	for _, b := range backends {
		requireSameRun(t, machine.NewRBLimited(8), window, winDec, buf,
			core.Options{Backend: b, Warmup: 2000, Measure: 3000})
	}
}

// TestNewRejectsForeignDecode: a decode is bound to the trace it was built
// from — a different trace, or a trace of the same length at another
// address, is refused.
func TestNewRejectsForeignDecode(t *testing.T) {
	a, _ := workload.ByName("gcc")
	b, _ := workload.ByName("eon")
	ta, err := a.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := a.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	if _, err := core.New(cfg, "w", ta, core.Options{Decoded: dec}); err != nil {
		t.Fatalf("own decode refused: %v", err)
	}
	copied := append([]emu.TraceEntry(nil), ta...)
	for name, trace := range map[string][]emu.TraceEntry{
		"other trace":                tb,
		"same length, other address": copied,
		"prefix":                     ta[:len(ta)-1],
		"empty":                      nil,
	} {
		if _, err := core.New(cfg, "w", trace, core.Options{Decoded: dec}); err == nil {
			t.Errorf("%s: New accepted a decode of another trace", name)
		}
	}
	// Same backing array and length, shifted by one entry.
	head := core.Decode(ta[:len(ta)-1])
	if _, err := core.New(cfg, "w", ta[1:], core.Options{Decoded: head}); err == nil {
		t.Error("shifted window: New accepted a decode of another trace")
	}
	empty := core.Decode(nil)
	if _, err := core.New(cfg, "w", nil, core.Options{Decoded: empty}); err != nil {
		t.Errorf("empty decode of an empty trace refused: %v", err)
	}
}
