package core_test

import (
	"reflect"
	"sync"
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

// runStaged simulates dec under opt, capturing the stage timeline, and
// returns the result, the timeline and the warm-up/measurement split.
func runStaged(t *testing.T, cfg machine.Config, dec *core.Decoded, opt core.Options) (*core.Result, []core.StageRecord, *core.WindowResult) {
	t.Helper()
	opt.Stages = make([]core.StageRecord, dec.Len())
	s, err := core.New(cfg, "w", dec, opt)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	r, err := s.Simulate()
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return r, opt.Stages, s.Window()
}

// requireSameRun runs cfg twice — on the full trace, decoded into the run's
// own buffers as Buffers.Run does, and on the shared timing trace with
// reused buffers, as the harness does — and requires bit-identical results,
// stage timelines and window splits. An event-backend run without a split
// is also run through Buffers.Run itself.
func requireSameRun(t *testing.T, cfg machine.Config, trace []emu.TraceEntry, dec *core.Decoded, buf *core.Buffers, opt core.Options) {
	t.Helper()
	own := core.NewBuffers()
	perRun, err := own.Decode(len(trace), func(d *core.Decoder) error {
		for i := range trace {
			d.Add(&trace[i])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	opt.Buffers = own
	want, wantSt, wantWin := runStaged(t, cfg, perRun, opt)
	opt.Buffers = buf
	got, gotSt, gotWin := runStaged(t, cfg, dec, opt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s/%s: shared-decode run diverges:\n got %+v\nwant %+v", cfg.Name, opt.Backend, got, want)
	}
	if opt.Backend == core.BackendEvent && opt.Warmup == 0 {
		r, err := own.Run(cfg, "w", trace)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: shared-decode run diverges from Buffers.Run:\n got %+v\nwant %+v", cfg.Name, got, r)
		}
	}
	for i := range wantSt {
		if gotSt[i] != wantSt[i] {
			t.Fatalf("%s/%s: stage timeline diverges at instruction %d: shared decode %+v, per-run decode %+v",
				cfg.Name, opt.Backend, i, gotSt[i], wantSt[i])
		}
	}
	gotWin.Result, wantWin.Result = nil, nil
	if *gotWin != *wantWin {
		t.Fatalf("%s/%s: window split diverges: shared decode %+v, per-run decode %+v", cfg.Name, opt.Backend, gotWin, wantWin)
	}
}

// TestSharedDecodeMatchesPerRun is the differential gate for the shared
// timing trace: a run on a workload's cached Decoded, streamed from the
// emulator, must equal a run on its full trace decoded per run (and
// Buffers.Run), for both backends and every figure machine, with memory
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
	// agree with the per-run decode, split included.
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

// TestNewRejectsBothInputs: a run has one input, the timing trace; the full
// trace is no longer a second input New could be handed beside it (the
// name dates from when New refused the two together). New accepts a timing
// trace alone, runs an empty one to zero instructions, and rejects the
// decode of a stream that is not a committed instruction stream.
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
	if _, err := core.New(cfg, "w", dec, core.Options{}); err != nil {
		t.Fatalf("timing trace alone refused: %v", err)
	}
	empty, err := decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := core.Run(cfg, "w", empty, core.Options{}); err != nil || r.Instructions != 0 {
		t.Errorf("empty timing trace: %+v, %v", r, err)
	}
	broken := append([]emu.TraceEntry(nil), trace[:100]...)
	broken[40].NextPC++
	var d core.Decoder
	for i := range broken {
		d.Add(&broken[i])
	}
	bad, _ := d.Decoded()
	if _, err := core.New(cfg, "w", bad, core.Options{}); err == nil {
		t.Error("New accepted the decode of a trace whose next PCs do not chain")
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
	if _, err := core.NewBuffers().Run(machine.NewRBFull(8), "w", broken); err == nil {
		t.Error("Run accepted a trace whose next PCs do not chain")
	}
	// A window's last next PC points outside it, which is fine.
	if _, err := decode(trace[10:20]); err != nil {
		t.Errorf("window refused: %v", err)
	}
}

// TestRunModesShareOneDecode: the run modes read values from emulators of
// their own, never from the timing trace, so the commit-time check,
// wrong-path fetch and a datapath fault plan run concurrently on one shared
// workload.Decoded (under -race in CI): every run equals its serial run, and
// the decode is left unchanged.
func TestRunModesShareOneDecode(t *testing.T) {
	w, _ := workload.ByName("li")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := w.Decoded()
	if err != nil {
		t.Fatal(err)
	}
	pristine := core.Seeded(dec, func([]int32, []bool, []uint64) {})
	modes := map[string]func() core.Options{
		"oracle":     func() core.Options { return core.Options{Oracle: emu.New(prog)} },
		"wrong-path": func() core.Options { return core.Options{WrongPath: emu.New(prog)} },
		"faults": func() core.Options {
			return core.Options{Oracle: emu.New(prog), Faults: &core.FaultPlan{Faults: []core.Fault{
				{Kind: core.FaultDigitFlip, Seq: 1001, Digit: 3},
				{Kind: core.FaultStaleBypass, Seq: 2002},
			}}}
		},
	}
	type outcome struct {
		r   *core.Result
		out *core.FaultOutcome
		err error
	}
	cfg := machine.NewRBFull(8)
	run := func(opt core.Options) outcome {
		s, err := core.New(cfg, w.Name, dec, opt)
		if err != nil {
			return outcome{err: err}
		}
		r, err := s.Simulate()
		return outcome{r, s.Faults(), err}
	}
	serial := map[string]outcome{}
	for name, opt := range modes {
		if serial[name] = run(opt()); serial[name].err != nil {
			t.Fatalf("%s: %v", name, serial[name].err)
		}
	}
	if serial["wrong-path"].r.WrongPathIssued == 0 {
		t.Fatal("the wrong-path run issued no wrong-path work")
	}
	var wg sync.WaitGroup
	got := make(map[string]*outcome, len(modes))
	for name, opt := range modes {
		o := new(outcome)
		got[name] = o
		wg.Add(1)
		go func() {
			defer wg.Done()
			*o = run(opt())
		}()
	}
	wg.Wait()
	for name, o := range got {
		if !reflect.DeepEqual(*o, serial[name]) {
			t.Errorf("%s: concurrent run differs from the serial run:\n got %+v\nwant %+v", name, *o, serial[name])
		}
	}
	if !reflect.DeepEqual(dec, pristine) {
		t.Error("the runs changed the shared decode")
	}
}
