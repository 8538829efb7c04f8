package lint

import (
	"strings"
	"testing"
)

// Golden tests for the CFG/dataflow analyzers. Each loads a "bad"
// fixture (every finding pinned in the golden file) and an "ok" fixture
// (clean patterns plus one allow-suppressed true positive each); an "ok"
// path appearing in the rendered output fails the test.

func TestLockstateGolden(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "lockstatebad", "lockstateok")
	diags := Apply(prog, []*Analyzer{Lockstate})
	if len(diags) == 0 {
		t.Fatal("seeded lockstate violations produced no diagnostics")
	}
	got := render(t, l, diags)
	if strings.Contains(got, "lockstateok") {
		t.Errorf("negative fixture was flagged:\n%s", got)
	}
	checkGolden(t, "lockstate.golden", got)
}

// TestDeterminismFlowGolden exercises the taint upgrade: map-iteration order
// escaping the loop through assignments before reaching ordered output —
// including the figure1 regression shape — with the collect-then-sort and
// reassignment patterns staying clean.
func TestDeterminismFlowGolden(t *testing.T) {
	l := newTestLoader(t)
	prog := loadProgram(t, l, "determinismflow")
	diags := Apply(prog, []*Analyzer{Determinism})
	if len(diags) == 0 {
		t.Fatal("map-order escapes produced no diagnostics")
	}
	// Exactly the two escapes (figure1 shape and the indirect assignment):
	// collect-then-sort, the clean reassignment, and the allow-suppressed
	// probe must all stay silent.
	if len(diags) != 2 {
		t.Errorf("want 2 findings, got %d:\n%s", len(diags), render(t, l, diags))
	}
	checkGolden(t, "determinismflow.golden", render(t, l, diags))
}
