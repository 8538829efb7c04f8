package core_test

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workload"
)

// tracePrefix is the first n committed instructions of p (fewer if it
// halts sooner).
func tracePrefix(t *testing.T, p *isa.Program, n int) []emu.TraceEntry {
	t.Helper()
	e := emu.New(p)
	trace := make([]emu.TraceEntry, 0, n)
	for len(trace) < n && !e.Halted() {
		te, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, te)
	}
	return trace
}

// TestWarmerMatchesDetailedFrontEnd pins functional warming to the detailed
// front end: over the same trace prefix, a detailed run without wrong-path
// modeling and ckpt.Warmer must leave deep-equal predictor state and
// deep-equal L1I state (tags and LRU), on every workload, both scheduler
// backends, and machines of both widths and every bypass kind. Both train
// the predictor through branch.Predictor.Fetch in program order; the L1I
// half holds only if the warmer restarts its fetch line wherever the
// detailed fetch does, after a taken branch and after a resolved
// misprediction. A -race build checks the shorter prefix only.
func TestWarmerMatchesDetailedFrontEnd(t *testing.T) {
	prefixes := []int{5_000, 50_000}
	if raceBuild {
		prefixes = prefixes[:1]
	}
	machines := []machine.Config{machine.NewRBLimited(8), machine.NewRBFull(4), machine.NewBaseline(8)}
	buf := core.NewBuffers()
	for _, w := range workload.All() {
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		full := tracePrefix(t, p, prefixes[len(prefixes)-1])
		for i, n := range prefixes {
			if n > len(full) {
				n = len(full)
				if i > 0 && prefixes[i-1] >= n {
					continue // the shorter prefix already covered the whole trace
				}
			}
			trace := full[:n]
			dec, err := decode(trace)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range machines {
				warmer := ckpt.NewWarmer(mem.MustHierarchy(cfg.Mem), branch.New())
				for j := range trace {
					warmer.Observe(&trace[j])
				}
				wantPred, wantHier := warmer.Pred.State(), warmer.Hier.State()
				for _, be := range []core.Backend{core.BackendEvent, core.BackendPoll} {
					if _, err := core.Run(cfg, w.Name, dec, core.Options{Backend: be, Buffers: buf}); err != nil {
						t.Fatalf("%s/%d/%s/%s: %v", w.Name, n, cfg.Name, be, err)
					}
					pred, hier := buf.WarmState()
					if !reflect.DeepEqual(pred, wantPred) {
						t.Errorf("%s/%d/%s/%s: predictor state differs from the warmer's", w.Name, n, cfg.Name, be)
					}
					if got, want := hier.L1I, wantHier.L1I; !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%d/%s/%s: L1I state differs from the warmer's (tags equal %v, LRU equal %v)",
							w.Name, n, cfg.Name, be, reflect.DeepEqual(got.Tags, want.Tags), reflect.DeepEqual(got.LRU, want.LRU))
					}
				}
			}
		}
	}
}
