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

// decode builds the timing trace of a full trace.
func decode(trace []emu.TraceEntry) (*core.Decoded, error) {
	var b core.Decoder
	for i := range trace {
		b.Add(&trace[i])
	}
	return b.Decoded()
}

// runStaged simulates trace (or, when it is nil, opt.Decoded) under opt,
// capturing the stage timeline, and returns the result, the timeline and
// the warm-up/measurement split.
func runStaged(t *testing.T, cfg machine.Config, trace []emu.TraceEntry, opt core.Options) (*core.Result, []core.StageRecord, *core.WindowResult) {
	t.Helper()
	n := len(trace)
	if trace == nil {
		n = opt.Decoded.Len()
	}
	opt.Stages = make([]core.StageRecord, n)
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

// requireSameRun runs cfg twice — on the full trace, decoded per run, and on
// the timing trace alone with reused buffers, as the harness does — and
// requires bit-identical results, stage timelines and window splits.
func requireSameRun(t *testing.T, cfg machine.Config, trace []emu.TraceEntry, dec *core.Decoded, buf *core.Buffers, opt core.Options) {
	t.Helper()
	want, wantSt, wantWin := runStaged(t, cfg, trace, opt)
	opt.Decoded, opt.Buffers = dec, buf
	got, gotSt, gotWin := runStaged(t, cfg, nil, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s: timing-only run diverges:\n got %+v\nwant %+v", cfg.Name, opt.Backend, got, want)
	}
	for i := range wantSt {
		if gotSt[i] != wantSt[i] {
			t.Fatalf("%s/%s: stage timeline diverges at instruction %d: timing-only %+v, full trace %+v",
				cfg.Name, opt.Backend, i, gotSt[i], wantSt[i])
		}
	}
	gotWin.Result, wantWin.Result = nil, nil
	if *gotWin != *wantWin {
		t.Fatalf("%s/%s: window split diverges: timing-only %+v, full trace %+v", cfg.Name, opt.Backend, gotWin, wantWin)
	}
}

// TestSharedDecodeMatchesPerRun is the differential gate for the timing
// trace: a run on a workload's cached Decoded alone must equal a run on its
// full trace, for both backends and every figure machine, with memory
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
		if dec.Len() != len(trace) {
			t.Fatalf("%s: timing trace has %d entries, full trace %d", name, dec.Len(), len(trace))
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

	// A sampled window decodes on its own slice; its timing trace must
	// agree with the full-trace run, split included.
	start := len(trace) / 3
	window := trace[start : start+6000]
	winDec, err := decode(window)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		requireSameRun(t, machine.NewRBLimited(8), window, winDec, buf,
			core.Options{Backend: b, Warmup: 2000, Measure: 3000})
	}
}

// TestNewRejectsBothInputs: a run reads a full trace or a timing trace,
// never both — there would be two sources of truth for one run.
func TestNewRejectsBothInputs(t *testing.T) {
	w, _ := workload.ByName("gcc")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	if _, err := core.New(cfg, "w", nil, core.Options{Decoded: dec}); err != nil {
		t.Fatalf("timing trace alone refused: %v", err)
	}
	if _, err := core.New(cfg, "w", trace, core.Options{}); err != nil {
		t.Fatalf("full trace alone refused: %v", err)
	}
	for name, tr := range map[string][]emu.TraceEntry{
		"its own trace":  trace,
		"an empty trace": {},
		"a trace prefix": trace[:10],
	} {
		if _, err := core.New(cfg, "w", tr, core.Options{Decoded: dec}); err == nil {
			t.Errorf("%s: New accepted a full trace beside a timing trace", name)
		}
	}
	empty, err := decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := core.Run(cfg, "w", nil, core.Options{Decoded: empty}); err != nil || r.Instructions != 0 {
		t.Errorf("empty timing trace: %+v, %v", r, err)
	}
}

// TestNewRefusesCheckingModesWithoutTrace: the run modes — the commit-time
// check, a fault plan and wrong-path fetch — read result values that only
// the full trace holds, so New refuses each on a timing trace — and accepts
// each on the full trace.
func TestNewRefusesCheckingModesWithoutTrace(t *testing.T) {
	w, _ := workload.ByName("compress")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(8)
	for _, m := range []struct {
		name string
		opt  core.Options
	}{
		{"commit-time check", core.Options{Oracle: emu.New(prog)}},
		{"fault plan", core.Options{Faults: &core.FaultPlan{}}},
		{"wrong-path fetch", core.Options{WrongPath: prog}},
	} {
		if _, err := core.New(cfg, "w", trace, m.opt); err != nil {
			t.Errorf("%s: refused on the full trace: %v", m.name, err)
		}
		m.opt.Decoded = dec
		if _, err := core.New(cfg, "w", nil, m.opt); err == nil {
			t.Errorf("%s: New accepted a timing trace", m.name)
		}
	}
}

// TestDecodeRejectsBrokenStream: the timing trace keeps only the last
// entry's next PC, so a trace whose next PCs do not chain is not a committed
// stream it can represent; Decode reports it and New refuses the trace.
func TestDecodeRejectsBrokenStream(t *testing.T) {
	w, _ := workload.ByName("li")
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	broken := append([]emu.TraceEntry(nil), trace[:100]...)
	broken[40].NextPC++
	if _, err := decode(broken); err == nil {
		t.Error("Decode accepted a trace whose next PCs do not chain")
	}
	if _, err := core.Run(machine.NewRBFull(8), "w", broken, core.Options{}); err == nil {
		t.Error("Run accepted a trace whose next PCs do not chain")
	}
	// A window's last next PC points outside it, which is fine.
	if _, err := decode(trace[10:20]); err != nil {
		t.Errorf("window refused: %v", err)
	}
}
