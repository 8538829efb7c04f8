package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

func genRun(t *testing.T, p GenParams, cfg machine.Config) *core.Result {
	t.Helper()
	w, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewBuffers().Run(cfg, w.Name, trace)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGenerateDefaultsRun(t *testing.T) {
	w, err := Generate(GenParams{Name: "gen-default"})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := w.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 10_000 {
		t.Errorf("default generated workload only %d instructions", len(trace))
	}
	if trace[len(trace)-1].Inst.Op != isa.HALT {
		t.Error("generated workload did not halt")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenParams{
		{},                                  // no name
		{Name: "x", ChainLength: 100},       // chain too long
		{Name: "x", Loads: 99},              // too many loads
		{Name: "x", BranchTakenPercent: -3}, // bad percentage
		{Name: "x", Iterations: -1},         // bad iterations
		{Name: "x", FootprintBytes: 1 << 30},
	}
	for _, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate(%+v) accepted invalid params", p)
		}
	}
}

func TestGenerateChainLengthControlsBaselineGap(t *testing.T) {
	// A longer carried add chain widens the Baseline-vs-Ideal gap — the
	// generator's central knob, mirroring the paper's premise.
	gap := func(chain int) float64 {
		p := GenParams{Name: "gen-chain", ChainLength: chain, Iterations: 1200, Seed: 5}
		p.Name = p.Name + string(rune('0'+chain))
		base := genRun(t, p, machine.NewBaseline(4))
		ideal := genRun(t, p, machine.NewIdeal(4))
		return ideal.IPC() / base.IPC()
	}
	short := gap(1)
	long := gap(16)
	if long <= short {
		t.Errorf("chain 16 gap (%.3f) not larger than chain 1 gap (%.3f)", long, short)
	}
	if long < 1.2 {
		t.Errorf("chain-16 kernel should be strongly latency-bound: gap %.3f", long)
	}
}

func TestGenerateBranchEntropyControlsMispredicts(t *testing.T) {
	rate := func(pct int) float64 {
		p := GenParams{Name: "gen-br", BranchTakenPercent: pct, Iterations: 3000, Seed: 9}
		p.Name = p.Name + string(rune('a'+pct%26))
		r := genRun(t, p, machine.NewIdeal(8))
		return r.MispredictRate()
	}
	biased := rate(99)
	coin := rate(50)
	if coin < 5*biased && coin < 0.1 {
		t.Errorf("coin-flip branch mispredict rate %.3f not clearly above biased %.3f", coin, biased)
	}
}

func TestGenerateFootprintControlsMissRate(t *testing.T) {
	miss := func(kb int) float64 {
		p := GenParams{Name: "gen-fp", FootprintBytes: kb << 10, Iterations: 2500, Loads: 4, Seed: 3}
		p.Name = p.Name + string(rune('a'+kb%26))
		r := genRun(t, p, machine.NewIdeal(8))
		return r.L1D.MissRate()
	}
	small := miss(4)   // fits the 8KB L1D
	large := miss(512) // far exceeds it
	if large <= small {
		t.Errorf("512KB footprint miss rate %.3f not above 4KB rate %.3f", large, small)
	}
}

func TestGeneratedWorkloadsVerifyOnRBDatapath(t *testing.T) {
	p := GenParams{Name: "gen-dp", ChainLength: 8, MulOps: 2, Iterations: 800}
	w, err := Generate(p)
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
	r, err := core.Run(machine.NewRBFull(8), w.Name, dec, core.Options{Oracle: emu.New(prog)})
	if err != nil {
		t.Fatal(err)
	}
	if r.DatapathChecked == 0 {
		t.Error("no datapath checks on generated workload")
	}
}
