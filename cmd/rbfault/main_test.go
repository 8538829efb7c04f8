package main

import (
	"testing"

	"repro/internal/fault"
)

// datapathReport returns the campaign's report for model.
func datapathReport(c *fault.Campaign, model string) *fault.DatapathReport {
	for i := range c.Datapath {
		if c.Datapath[i].Model == model {
			return &c.Datapath[i]
		}
	}
	return nil
}

// withoutModel drops model's datapath report.
func withoutModel(c *fault.Campaign, model string) {
	var keep []fault.DatapathReport
	for _, d := range c.Datapath {
		if d.Model != model {
			keep = append(keep, d)
		}
	}
	c.Datapath = keep
}

// TestVerifyEnforcesEveryFloor: a quick campaign and the expected service
// outcome pass verify, and a campaign violating any one detection floor
// fails it — including the floors only rbcheck used to enforce (digit
// flips recovered as detected, stale-bypass residue detections, the
// watchdog's latency bound and a missing datapath report).
func TestVerifyEnforcesEveryFloor(t *testing.T) {
	base, err := fault.Run(fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := &serviceReport{StormRequests: 12, StormCanceled: 4, StormShed: 8, BreakerTrips: 1,
		DegradedRequests: 8, DegradedOK: 8, DegradedInjected: 4}
	if err := verify(base, svc); err != nil {
		t.Fatalf("quick campaign fails verify: %v", err)
	}
	for _, v := range []struct {
		name string
		edit func(c *fault.Campaign)
	}{
		{"empty gate sweep", func(c *fault.Campaign) { c.Gates[0].Sites = 0 }},
		{"gate coverage below floor", func(c *fault.Campaign) { c.Gates[0].Detected = c.Gates[0].Sites * 8 / 10 }},
		{"no digit flips", func(c *fault.Campaign) { datapathReport(c, "digit-flip").Injected = 0 }},
		{"digit-flip false negative", func(c *fault.Campaign) { datapathReport(c, "digit-flip").FalseNegatives = []int64{7} }},
		{"digit flip past residue", func(c *fault.Campaign) {
			d := datapathReport(c, "digit-flip")
			d.Residue, d.Oracle = d.Residue-1, d.Oracle+1
		}},
		{"digit flip not recovered", func(c *fault.Campaign) { datapathReport(c, "digit-flip").Recovered-- }},
		{"digit-flip report missing", func(c *fault.Campaign) { withoutModel(c, "digit-flip") }},
		{"no stale substitutions", func(c *fault.Campaign) { datapathReport(c, "stale-bypass").Injected = 0 }},
		{"stale substitution missed", func(c *fault.Campaign) { datapathReport(c, "stale-bypass").Oracle-- }},
		{"stale bypass without residue", func(c *fault.Campaign) {
			d := datapathReport(c, "stale-bypass")
			d.Residue, d.Oracle = 0, d.Oracle+d.Residue
		}},
		{"stale-bypass report missing", func(c *fault.Campaign) { withoutModel(c, "stale-bypass") }},
		{"no drops", func(c *fault.Campaign) { c.Sched.Injected = 0 }},
		{"drop not recovered", func(c *fault.Campaign) { c.Sched.Recovered-- }},
		{"watchdog too slow", func(c *fault.Campaign) { c.Sched.MaxLatency = c.Sched.Window + 1001 }},
	} {
		c := *base
		c.Gates = append([]fault.GateReport(nil), base.Gates...)
		c.Datapath = append([]fault.DatapathReport(nil), base.Datapath...)
		v.edit(&c)
		if err := verify(&c, svc); err == nil {
			t.Errorf("%s: verify passed", v.name)
		}
	}
}
