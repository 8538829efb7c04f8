package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// chainProgram builds a straight-line dependent add chain (no branches, so
// no wrong-path machinery interferes with post-ordinal accounting).
func chainProgram(t *testing.T, n int) *isa.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString("        li r1, 7\n")
	for i := 0; i < n; i++ {
		b.WriteString("        addq r1, #3, r1\n")
	}
	b.WriteString("        halt\n")
	p, err := asm.Assemble(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultDigitFlipAlwaysDetectedByResidue: every single-digit flip on a
// result-producing instruction is caught by the mod-3 residue check on the
// converter path, before writeback, with the run still completing cleanly.
func TestFaultDigitFlipAlwaysDetectedByResidue(t *testing.T) {
	p := chainProgram(t, 40)
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var faults []Fault
	for _, te := range trace {
		if te.HasResult {
			faults = append(faults, Fault{Kind: FaultDigitFlip, Seq: te.Seq, Digit: int(te.Seq) % 64})
		}
	}
	s, err := New(machine.NewRBFull(4), "faults", decodeTrace(t, trace), Options{Oracle: emu.New(p), Faults: &FaultPlan{Faults: faults}})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Faults()
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	for i, det := range out.Detections {
		if !det.Injected {
			t.Fatalf("fault %d (seq %d) not injected", i, det.Fault.Seq)
		}
		if det.Detector != "residue" {
			t.Fatalf("fault %d (seq %d digit %d): detector %q, want residue",
				i, det.Fault.Seq, det.Fault.Digit, det.Detector)
		}
		if !det.Recovered {
			t.Fatalf("fault %d not recovered", i)
		}
		if det.Latency() < 0 {
			t.Fatalf("fault %d: negative detection latency %d", i, det.Latency())
		}
	}
}

// TestFaultStaleBypassDetected: stale-value substitution is caught by the
// residue check when the stale value differs mod 3 and by the commit-time
// value compare otherwise — combined coverage is 100% of unmasked faults.
func TestFaultStaleBypassDetected(t *testing.T) {
	p := chainProgram(t, 40)
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var faults []Fault
	for _, te := range trace {
		if te.HasResult {
			faults = append(faults, Fault{Kind: FaultStaleBypass, Seq: te.Seq})
		}
	}
	s, err := New(machine.NewRBFull(4), "faults", decodeTrace(t, trace), Options{Oracle: emu.New(p), Faults: &FaultPlan{Faults: faults}})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Faults()
	if _, err := s.Simulate(); err != nil {
		t.Fatal(err)
	}
	var residue, oracle int
	for i, det := range out.Detections {
		if !det.Injected || det.Masked {
			continue
		}
		switch det.Detector {
		case "residue":
			residue++
		case "oracle":
			oracle++
		default:
			t.Fatalf("unmasked stale fault %d (seq %d) undetected", i, det.Fault.Seq)
		}
		if !det.Recovered {
			t.Fatalf("fault %d not recovered", i)
		}
	}
	if residue == 0 {
		t.Fatal("no stale faults caught by the residue check")
	}
	// The add chain steps by +3 each instruction, so every stale value is
	// congruent to the correct one mod 3: this workload is exactly the
	// residue check's blind spot unless the immediate breaks the pattern.
	t.Logf("stale detection: %d residue, %d oracle", residue, oracle)
}

// TestLostWakeupWatchdogRecovery is the lost-wakeup regression: drop one
// posted wakeup event, and the run must (a) complete anyway, (b) attribute
// the recovery to the watchdog within the configured window, and (c) commit
// the same instruction stream the poll oracle does.
func TestLostWakeupWatchdogRecovery(t *testing.T) {
	p := chainProgram(t, 200)
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(4)

	oracle, err := Run(cfg, "faults", decodeTrace(t, trace), Options{Backend: BackendPoll})
	if err != nil {
		t.Fatal(err)
	}

	const window = 2000
	s, err := New(cfg, "faults", decodeTrace(t, trace), Options{Faults: &FaultPlan{
		Faults:         []Fault{{Kind: FaultDropWakeup, PostIndex: 50}},
		WatchdogWindow: window,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Faults()
	r, err := s.Simulate()
	if err != nil {
		t.Fatalf("run with dropped wakeup did not recover: %v", err)
	}

	det := out.Detections[0]
	if !det.Injected {
		t.Fatal("drop-wakeup fault never injected (post ordinal not reached)")
	}
	if det.Detector != "watchdog" {
		t.Fatalf("detector %q, want watchdog", det.Detector)
	}
	if !det.Recovered {
		t.Fatal("watchdog did not mark the fault recovered")
	}
	if lat := det.Latency(); lat < 0 || lat > window+1000 {
		t.Fatalf("detection latency %d outside (0, window+1000]", lat)
	}
	if r.WatchdogRecoveries == 0 {
		t.Fatal("Result.WatchdogRecoveries not counted")
	}
	if r.Instructions != oracle.Instructions {
		t.Fatalf("instructions %d, poll oracle %d", r.Instructions, oracle.Instructions)
	}
	if r.Cycles <= oracle.Cycles || r.Cycles > oracle.Cycles+window+1000 {
		t.Fatalf("cycles %d vs poll %d: stall should cost roughly the watchdog window (%d)",
			r.Cycles, oracle.Cycles, window)
	}
}

// TestNewRefusesCheckingModesWithoutTrace: the run modes read their values
// from emulators of their own, not from a full trace, so New accepts each
// (the commit-time check, wrong-path fetch and a fault plan) on a timing
// trace alone. What it still refuses is a mode without the source of its
// values: digit-flip and stale-bypass faults take their golden values from
// the commit-time check's reference and need Options.Oracle; a drop-wakeup
// plan needs no reference.
func TestNewRefusesCheckingModesWithoutTrace(t *testing.T) {
	p := chainProgram(t, 10)
	dec := decodeTrace(t, mustTrace(t, p))
	cfg := machine.NewRBFull(4)
	for name, opt := range map[string]Options{
		"commit-time check": {Oracle: emu.New(p)},
		"wrong-path fetch":  {WrongPath: emu.New(p)},
		"fault plan":        {Faults: &FaultPlan{}},
	} {
		if _, err := Run(cfg, "faults", dec, opt); err != nil {
			t.Errorf("%s: refused on a timing trace: %v", name, err)
		}
	}
	for _, k := range []FaultKind{FaultDigitFlip, FaultStaleBypass} {
		plan := &FaultPlan{Faults: []Fault{{Kind: FaultDropWakeup}, {Kind: k, Seq: 3}}}
		if _, err := New(cfg, "faults", dec, Options{Faults: plan}); err == nil {
			t.Errorf("%v: New accepted a datapath fault without the oracle", k)
		}
		if _, err := New(cfg, "faults", dec, Options{Oracle: emu.New(p), Faults: plan}); err != nil {
			t.Errorf("%v: refused with the oracle: %v", k, err)
		}
	}
	if _, err := New(cfg, "faults", dec, Options{Faults: &FaultPlan{Faults: []Fault{{Kind: FaultDropWakeup}}}}); err != nil {
		t.Errorf("drop-wakeup plan refused without the oracle: %v", err)
	}
}

// TestFaultFreeRunHasNoWatchdogActivity: arming an empty plan changes
// nothing, and no watchdog recovery fires on a healthy run.
func TestFaultFreeRunHasNoWatchdogActivity(t *testing.T) {
	p := chainProgram(t, 50)
	trace, err := emu.Trace(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.NewRBFull(4)
	clean, err := Run(cfg, "faults", decodeTrace(t, trace), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, "faults", decodeTrace(t, trace), Options{Faults: &FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	armed, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if *armed != *clean {
		t.Fatalf("empty fault plan changed the result:\narmed %+v\nclean %+v", armed, clean)
	}
	if clean.WatchdogRecoveries != 0 {
		t.Fatalf("fault-free run recovered %d times", clean.WatchdogRecoveries)
	}
}
