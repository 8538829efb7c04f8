package check

import (
	"fmt"

	"repro/internal/fault"
)

// The faults layer: the fault-injection campaign's detection guarantees,
// one report per floor of fault.Floors (DESIGN.md §12), the same floors
// rbfault enforces.

// Faults runs the fault-injection campaign and asserts its detection and
// recovery guarantees.
func Faults(opts Options) []Report {
	var campaign *fault.Campaign
	out := []Report{run("faults", "campaign", func() (int64, string, error) {
		var err error
		campaign, err = fault.Run(fault.Options{Full: opts.Full, Seed: opts.Seed})
		if err != nil {
			return 0, "", err
		}
		trials := int64(0)
		for _, g := range campaign.Gates {
			trials += int64(g.Sites)
		}
		for _, d := range campaign.Datapath {
			trials += int64(d.Targets)
		}
		trials += int64(campaign.Sched.Drops)
		return trials, fmt.Sprintf("%d fault sites swept", trials), nil
	})}
	if campaign == nil {
		return out
	}
	return append(out, floorReports(campaign)...)
}

// floorReports reports each of the campaign's floors as one check.
func floorReports(c *fault.Campaign) []Report {
	out := make([]Report, len(fault.Floors))
	for i, f := range fault.Floors {
		out[i] = run("faults", f.Name, func() (int64, string, error) { return f.Check(c) })
	}
	return out
}
