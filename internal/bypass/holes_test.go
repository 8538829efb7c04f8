// Table-driven coverage of the paper's limited-bypass configurations
// (Figure 14): the availability schedule each induces, and — end to end —
// that the scheduler never launches a dependent instruction into a removed
// bypass level. External test package so the end-to-end half can drive the
// timing core without an import cycle.
package bypass_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bypass"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
)

// holeConfigs is the table shared by the schedule-shape and end-to-end
// tests: every Figure-14 configuration with at least one removed level.
var holeConfigs = []struct {
	name    string
	cfg     bypass.Config
	removed []int64 // offsets with no bypass path
	holes   []int64 // Schedule.Holes(): gaps after first availability
	first   int64   // earliest dependent-issue offset (wakeup delay model)
}{
	{"No-1", bypass.Full().Without(1), []int64{1}, nil, 2},
	{"No-2", bypass.Full().Without(2), []int64{2}, []int64{2}, 1},
	{"No-3", bypass.Full().Without(3), []int64{3}, []int64{3}, 1},
	{"No-1,2", bypass.Full().Without(1, 2), []int64{1, 2}, nil, 3},
	{"No-2,3", bypass.Full().Without(2, 3), []int64{2, 3}, []int64{2, 3}, 1},
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure14HoleSchedules(t *testing.T) {
	for _, tc := range holeConfigs {
		if got := tc.cfg.String(); got != tc.name {
			t.Errorf("%s: String() = %q", tc.name, got)
		}
		s := bypass.FromConfig(tc.cfg, bypass.RFOffset)
		removed := make(map[int64]bool, len(tc.removed))
		for _, o := range tc.removed {
			removed[o] = true
		}
		// Offsets 1..NumLevels are available exactly where the level exists;
		// the register file serves every offset from RFOffset on; offset 0 is
		// the producing cycle and never available.
		if s.AvailableAt(0) {
			t.Errorf("%s: available at offset 0", tc.name)
		}
		for o := int64(1); o <= bypass.NumLevels; o++ {
			if got, want := s.AvailableAt(o), !removed[o]; got != want {
				t.Errorf("%s: AvailableAt(%d) = %v, want %v", tc.name, o, got, want)
			}
		}
		for o := int64(bypass.RFOffset); o < bypass.RFOffset+3; o++ {
			if !s.AvailableAt(o) {
				t.Errorf("%s: register file not available at offset %d", tc.name, o)
			}
		}
		if got := s.Holes(); !int64sEqual(got, tc.holes) {
			t.Errorf("%s: Holes() = %v, want %v", tc.name, got, tc.holes)
		}
		if got := s.NextAvailable(1); got != tc.first {
			t.Errorf("%s: NextAvailable(1) = %d, want %d", tc.name, got, tc.first)
		}
		if got, want := s.Seamless(), len(tc.holes) == 0; got != want {
			t.Errorf("%s: Seamless() = %v, want %v", tc.name, got, want)
		}
	}
}

// TestDependentChainAvoidsHoles drives a serially dependent add chain
// through the 4-wide (single-cluster) Ideal machine under each limited-bypass
// configuration and checks the issue-to-issue distance of every steady-state
// dependent pair: it must be an offset at which the value is actually
// obtainable (never a removed level), and for an otherwise unconstrained
// chain it must equal the model's earliest available offset — the wakeup
// delay Figure 14 charges for the missing level. The chain runs in a loop so
// the back half of the trace executes with warm caches; the 8-wide machine is
// deliberately avoided here because its inter-cluster forwarding delay shifts
// the schedule for cross-cluster pairs.
func TestDependentChainAvoidsHoles(t *testing.T) {
	p, err := asm.Assemble(`
        li r29, 10
loop:
        addq r1, #1, r1
        addq r1, #1, r1
        addq r1, #1, r1
        addq r1, #1, r1
        addq r1, #1, r1
        addq r1, #1, r1
        subq r29, #1, r29
        bgt r29, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	trace, dec, err := core.TraceProgram(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range holeConfigs {
		cfg := machine.NewIdealLimited(4, tc.cfg)
		stages := make([]core.StageRecord, len(trace))
		if _, err := core.Run(cfg, "hole-chain", dec, core.Options{Stages: stages}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := bypass.FromConfig(tc.cfg, bypass.RFOffset)
		pairs := 0
		for i := len(trace) / 2; i < len(trace)-1; i++ {
			if trace[i].Inst.Op != isa.ADDQ || trace[i+1].Inst.Op != isa.ADDQ {
				continue
			}
			pairs++
			off := stages[i+1].Issue - stages[i].Issue
			if !s.AvailableAt(off) {
				t.Errorf("%s: dependent issued at offset %d, a hole (removed levels %v)",
					tc.name, off, tc.removed)
			}
			if off != tc.first {
				t.Errorf("%s: dependent issue offset %d, model predicts %d",
					tc.name, off, tc.first)
			}
		}
		if pairs < 20 {
			t.Errorf("%s: only %d steady-state dependent pairs checked", tc.name, pairs)
		}
	}
}
