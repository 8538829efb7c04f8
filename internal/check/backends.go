package check

import (
	"context"
	"fmt"
	"reflect"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// The backends layer: the lockstep poll-vs-event scheduler gate. The
// event-driven backend (calendar-queue wakeup, dead-cycle skipping,
// slab-allocated window) is a pure performance transformation of the
// poll-based oracle; this layer proves it by requiring bit-identical
// core.Result values — cycles, occupancy, every bypass-case counter, cache
// statistics, the lot — for every (machine × workload) cell of the
// experiment matrix, plus per-instruction stage timelines, a wrong-path
// (squash-under-issue) cell, and a checkpoint-warmed sampling window. Each
// matrix cell also gets a decode-sources leg: the harness's runs on the
// workload's cached timing trace, streamed from the emulator, must equal
// runs on a timing trace decoded from the full trace emu.Trace collects.

// Backends runs the poll-vs-event equivalence layer.
func Backends(opts Options) []Report {
	var out []Report
	widths := []int{8}
	if opts.Full {
		widths = []int{8, 4}
	}
	for _, w := range tierWorkloads(opts, "compress", "li", "mcf") {
		for _, width := range widths {
			w, width := w, width
			out = append(out, run("backends", fmt.Sprintf("poll-vs-event/%s/width-%d", w.Name, width),
				func() (int64, string, error) {
					return backendMatrixCell(w, width)
				}))
			out = append(out, run("backends", fmt.Sprintf("streamed-vs-traced-decode/%s/width-%d", w.Name, width),
				func() (int64, string, error) {
					return backendDecodeSources(w, width)
				}))
		}
	}
	out = append(out, run("backends", "poll-vs-event/stages", func() (int64, string, error) {
		return backendStages(opts)
	}))
	out = append(out, run("backends", "poll-vs-event/wrong-path", func() (int64, string, error) {
		return backendWrongPath(opts)
	}))
	out = append(out, run("backends", "poll-vs-event/window", backendWindow))
	return out
}

// backendMatrixCell runs every machine model of one matrix cell under both
// backends, on the workload's timing trace as the harness does, and
// requires bit-identical results.
func backendMatrixCell(w *workload.Workload, width int) (int64, string, error) {
	dec, err := w.Decoded()
	if err != nil {
		return 0, "", err
	}
	var trials int64
	for _, cfg := range machine.All(width) {
		rEvent, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendEvent})
		if err != nil {
			return trials, "", fmt.Errorf("%s event: %w", cfg.Name, err)
		}
		rPoll, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendPoll})
		if err != nil {
			return trials, "", fmt.Errorf("%s poll: %w", cfg.Name, err)
		}
		if err := diffResults(cfg.Name, "event", "poll", rEvent, rPoll); err != nil {
			return trials, "", err
		}
		trials++
	}
	return trials, fmt.Sprintf("%d machines bit-identical over %d instructions", trials, dec.Len()), nil
}

// backendDecodeSources runs every machine model of one matrix cell through
// the experiment harness — which simulates on the workload's shared, cached
// timing trace, streamed from the emulator (workload.Decoded) — and again
// on a timing trace a Decoder builds from the full trace emu.Trace
// collects, and requires bit-identical results: a drift between the two
// decode sources fails here, not only in the core unit tests.
func backendDecodeSources(w *workload.Workload, width int) (int64, string, error) {
	prog, err := w.Program()
	if err != nil {
		return 0, "", err
	}
	trace, err := emu.Trace(prog, w.MaxInsts)
	if err != nil {
		return 0, "", err
	}
	var d core.Decoder
	for i := range trace {
		d.Add(&trace[i])
	}
	traced, err := d.Decoded()
	if err != nil {
		return 0, "", err
	}
	h := experiments.NewHarness(1)
	defer h.Close()
	var trials int64
	for _, cfg := range machine.All(width) {
		streamed, err := h.RunCell(context.Background(), cfg, w)
		if err != nil {
			return trials, "", fmt.Errorf("%s harness: %w", cfg.Name, err)
		}
		r, err := core.Run(cfg, w.Name, traced, core.Options{})
		if err != nil {
			return trials, "", fmt.Errorf("%s traced decode: %w", cfg.Name, err)
		}
		if err := diffResults(cfg.Name, "streamed decode", "traced decode", streamed, r); err != nil {
			return trials, "", err
		}
		trials++
	}
	return trials, fmt.Sprintf("%d machines bit-identical on both decodes over %d instructions", trials, traced.Len()), nil
}

// backendStages compares the full per-instruction pipeline timelines (fetch,
// dispatch, issue, done, retire) between the backends on one cell:
// bit-identical aggregate results could in principle hide compensating
// per-instruction differences, so this pins the timelines themselves.
func backendStages(opts Options) (int64, string, error) {
	w, ok := workload.ByName("compress")
	if !ok {
		return 0, "", fmt.Errorf("workload compress missing")
	}
	dec, err := w.Decoded()
	if err != nil {
		return 0, "", err
	}
	cfg := machine.NewRBLimited(8) // holes + clustering: the hardest schedule
	stEvent, stPoll := make([]core.StageRecord, dec.Len()), make([]core.StageRecord, dec.Len())
	rEvent, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendEvent, Stages: stEvent})
	if err != nil {
		return 0, "", fmt.Errorf("event: %w", err)
	}
	rPoll, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendPoll, Stages: stPoll})
	if err != nil {
		return 0, "", fmt.Errorf("poll: %w", err)
	}
	if err := diffResults(cfg.Name, "event", "poll", rEvent, rPoll); err != nil {
		return 0, "", err
	}
	for i := range stEvent {
		if stEvent[i] != stPoll[i] {
			return int64(i), "", fmt.Errorf("stage timeline diverges at instruction %d: event %+v, poll %+v",
				i, stEvent[i], stPoll[i])
		}
	}
	return int64(len(stEvent)), fmt.Sprintf("%d per-instruction timelines identical", len(stEvent)), nil
}

// backendWrongPath covers the squash interaction: wrong-path modeling keeps
// the schedulers full of speculative entries that are squashed mid-issue
// when the mispredicted branch resolves — the stress case for the shared
// ready/resident list bookkeeping.
func backendWrongPath(opts Options) (int64, string, error) {
	w, ok := workload.ByName("mcf")
	if !ok {
		return 0, "", fmt.Errorf("workload mcf missing")
	}
	prog, err := w.Program()
	if err != nil {
		return 0, "", err
	}
	dec, err := w.Decoded()
	if err != nil {
		return 0, "", err
	}
	var trials int64
	for _, cfg := range []machine.Config{machine.NewRBFull(8), machine.NewBaseline(4)} {
		cfg.Name += "-wp"
		rEvent, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendEvent, WrongPath: emu.New(prog)})
		if err != nil {
			return trials, "", fmt.Errorf("%s event: %w", cfg.Name, err)
		}
		rPoll, err := core.Run(cfg, w.Name, dec, core.Options{Backend: core.BackendPoll, WrongPath: emu.New(prog)})
		if err != nil {
			return trials, "", fmt.Errorf("%s poll: %w", cfg.Name, err)
		}
		if err := diffResults(cfg.Name, "event", "poll", rEvent, rPoll); err != nil {
			return trials, "", err
		}
		if rEvent.WrongPathIssued == 0 {
			return trials, "", fmt.Errorf("%s: no wrong-path work issued; cell exercises nothing", cfg.Name)
		}
		trials++
	}
	return trials, "wrong-path squash cells bit-identical", nil
}

// backendWindow covers the sampler's detailed phase: one RB-limited-8
// window resumed from checkpoint-warmed cache and predictor state (functional
// warming over the trace prefix), split into warm-up, measurement and
// cooldown. The split itself — WarmupCycles and MeasuredCycles — must match
// along with the whole-window Result.
func backendWindow() (int64, string, error) {
	w, ok := workload.ByName("compress")
	if !ok {
		return 0, "", fmt.Errorf("workload compress missing")
	}
	trace, err := w.Trace()
	if err != nil {
		return 0, "", err
	}
	const warmup, measure, cooldown = 2000, 2000, 500
	start := len(trace) / 3
	if start+warmup+measure+cooldown > len(trace) {
		return 0, "", fmt.Errorf("%s: %d instructions is too short for a window", w.Name, len(trace))
	}
	cfg := machine.NewRBLimited(8)
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return 0, "", err
	}
	pred := branch.New()
	warmer := ckpt.NewWarmer(hier, pred)
	for i := range trace[:start] {
		warmer.Observe(&trace[i])
	}
	hs := hier.State()
	var d core.Decoder
	for i := start; i < start+warmup+measure+cooldown; i++ {
		d.Add(&trace[i])
	}
	window, err := d.Decoded()
	if err != nil {
		return 0, "", err
	}
	var split [2]*core.WindowResult
	for i, b := range []core.Backend{core.BackendEvent, core.BackendPoll} {
		s, err := core.New(cfg, w.Name, window, core.Options{
			Backend: b, Warmup: warmup, Measure: measure, Hier: &hs, Pred: pred.State(),
		})
		if err != nil {
			return 0, "", err
		}
		if _, err := s.Simulate(); err != nil {
			return 0, "", fmt.Errorf("%s: %w", b, err)
		}
		split[i] = s.Window()
	}
	ev, po := split[0], split[1]
	if err := diffResults(cfg.Name, "event", "poll", ev.Result, po.Result); err != nil {
		return 0, "", err
	}
	evSplit, poSplit := *ev, *po
	evSplit.Result, poSplit.Result = nil, nil
	if evSplit != poSplit {
		return 0, "", fmt.Errorf("%s: window split diverges: event %+v, poll %+v", cfg.Name, evSplit, poSplit)
	}
	if ev.WarmupCycles <= 0 || ev.MeasuredCycles <= 0 || ev.WarmupCycles+ev.MeasuredCycles >= ev.Result.Cycles {
		return 0, "", fmt.Errorf("%s: degenerate split: warm-up %d, measured %d of %d cycles",
			cfg.Name, ev.WarmupCycles, ev.MeasuredCycles, ev.Result.Cycles)
	}
	return int64(window.Len()), fmt.Sprintf("warmed window split identical (%d warm-up + %d measured cycles)",
		ev.WarmupCycles, ev.MeasuredCycles), nil
}

// diffResults requires two results — from the paths labelled la and lb —
// to be bit-identical, naming the first diverging field for diagnosis.
func diffResults(name, la, lb string, a, b *core.Result) error {
	if reflect.DeepEqual(a, b) {
		return nil
	}
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Errorf("%s: %s and %s diverge at %s: %v vs %v",
				name, la, lb, va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return fmt.Errorf("%s: %s and %s diverge", name, la, lb)
}
