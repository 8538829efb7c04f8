package check

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
)

// TestArithmeticLayersPass runs the adder, converter and ops layers at the
// quick tier — the cheap, simulation-free half of the suite — as part of the
// ordinary test run, so an opcode the emulator or the golden tables miss
// fails go test. The oracle and invariant layers are exercised by
// cmd/rbcheck and their own focused tests.
func TestArithmeticLayersPass(t *testing.T) {
	opts := Options{}
	reports := append(Adders(opts), Converter(opts)...)
	for _, r := range append(reports, Ops(opts)...) {
		if !r.Passed {
			t.Errorf("%s/%s failed: %s", r.Layer, r.Name, r.Detail)
		}
		if r.Trials == 0 {
			t.Errorf("%s/%s performed no comparisons", r.Layer, r.Name)
		}
	}
}

// TestOpCoverageCleanTables: the real tables cover every defined opcode
// exactly once.
func TestOpCoverageCleanTables(t *testing.T) {
	trials, _, err := checkOpCoverage()
	if err != nil {
		t.Fatal(err)
	}
	if trials != int64(isa.NumOps-1) {
		t.Errorf("coverage counted %d opcodes, want %d", trials, isa.NumOps-1)
	}
}

// TestOpCoverageCatchesMissingRow: an opcode dropped from any table, or
// listed in two, fails the coverage check by name — the failure rbcheck
// -quick reports for an opcode added to isa without an emulator row.
func TestOpCoverageCatchesMissingRow(t *testing.T) {
	without := func(specs []operateSpec, op isa.Op) []operateSpec {
		var out []operateSpec
		for _, s := range specs {
			if s.op != op {
				out = append(out, s)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		operate []operateSpec
		branch  []branchSpec
		prog    []progSpec
		want    string
	}{
		{"operate", without(operateSpecs, isa.ADDQ), branchSpecs, progSpecs, isa.ADDQ.String() + " has no equivalence-table row"},
		{"branch", operateSpecs, branchSpecs[1:], progSpecs, branchSpecs[0].op.String() + " has no equivalence-table row"},
		{"behavioral", operateSpecs, branchSpecs, progSpecs[1:], progSpecs[0].op.String() + " has no equivalence-table row"},
		{"duplicate", operateSpecs, append(branchSpecs[:len(branchSpecs):len(branchSpecs)], branchSpecs[0]), progSpecs, "in both branch and branch"},
	} {
		_, _, err := opCoverage(tc.operate, tc.branch, tc.prog)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultInjectionSelfCheck runs the oracle's self-test directly: an
// injected digit flip must be caught at exactly the faulted instruction.
func TestFaultInjectionSelfCheck(t *testing.T) {
	trials, _, err := faultInjectionCheck()
	if err != nil {
		t.Fatal(err)
	}
	if trials == 0 {
		t.Fatal("fault-injection self-check injected no faults")
	}
}

func TestReportJSONShape(t *testing.T) {
	b, err := json.Marshal(Report{Layer: "adders", Name: "x", Passed: true, Trials: 3, Millis: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"layer"`, `"name"`, `"passed"`, `"trials"`, `"duration_ms"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("report JSON missing %s: %s", key, b)
		}
	}
}

// TestFaultFloorsReportEachViolation: the faults layer reports one check
// per floor of fault.Floors, and a campaign violating one floor fails
// exactly that report and Campaign.Verify, the check rbfault runs.
func TestFaultFloorsReportEachViolation(t *testing.T) {
	base, err := fault.Run(fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range floorReports(base) {
		if !r.Passed {
			t.Fatalf("quick campaign fails %s: %s", r.Name, r.Detail)
		}
	}
	edits := map[string]func(c *fault.Campaign){
		"gate-coverage":       func(c *fault.Campaign) { c.Gates[0].Detected = c.Gates[0].Sites * 8 / 10 },
		"residue-digit-flips": func(c *fault.Campaign) { c.Datapath[0].Recovered-- },
		"stale-bypass-coverage": func(c *fault.Campaign) {
			c.Datapath[1].Residue, c.Datapath[1].Oracle = 0, c.Datapath[1].Oracle+c.Datapath[1].Residue
		},
		"watchdog-recovery": func(c *fault.Campaign) { c.Sched.MaxLatency = c.Sched.Window + 1001 },
	}
	if base.Datapath[0].Model != "digit-flip" || base.Datapath[1].Model != "stale-bypass" {
		t.Fatalf("datapath reports %q, %q", base.Datapath[0].Model, base.Datapath[1].Model)
	}
	for _, f := range fault.Floors {
		c := *base
		c.Gates = append([]fault.GateReport(nil), base.Gates...)
		c.Datapath = append([]fault.DatapathReport(nil), base.Datapath...)
		edits[f.Name](&c)
		for _, r := range floorReports(&c) {
			if r.Passed != (r.Name != f.Name) {
				t.Errorf("violating %s: report %s passed=%v (%s)", f.Name, r.Name, r.Passed, r.Detail)
			}
		}
		if err := c.Verify(); err == nil || !strings.HasPrefix(err.Error(), f.Name+": ") {
			t.Errorf("violating %s: Verify returned %v", f.Name, err)
		}
	}
}
