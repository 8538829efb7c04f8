package fault

import "fmt"

// The campaign's detection floors (DESIGN.md §12), the one copy both of its
// callers read: rbcheck's faults layer reports each floor as one check, and
// rbfault fails on the first that does not hold (Campaign.Verify). The
// design's claims are exact — the mod-3 residue check catches *every*
// single RB digit flip, residue plus the commit-time value compare catch
// every unmasked stale substitution, and the watchdog recovers every
// dropped wakeup — so those are asserted at 100%. Gate-level coverage with
// bounded vector sets is inherently empirical; its floor is pinned below
// observed values so a detection regression (a broken fault model, a
// mis-wired observable) trips it while vector-set noise does not.

// gateCoverageFloor is the empirical gate-level floor: observed coverage is
// 96-100% per circuit across seeds (hard-to-sensitize group-propagate gates
// in prefix trees account for the gap).
const gateCoverageFloor = 0.90

// Floor is one detection guarantee a campaign must meet. Check returns the
// trials it covered and a summary, or why the floor does not hold.
type Floor struct {
	Name  string
	Check func(*Campaign) (trials int64, detail string, err error)
}

// Floors are the campaign's guarantees, in report order.
var Floors = []Floor{
	{"gate-coverage", (*Campaign).gateCoverage},
	{"residue-digit-flips", (*Campaign).residueDigitFlips},
	{"stale-bypass-coverage", (*Campaign).staleBypassCoverage},
	{"watchdog-recovery", (*Campaign).watchdogRecovery},
}

// Verify checks every floor and returns the first that does not hold.
func (c *Campaign) Verify() error {
	for _, f := range Floors {
		if _, _, err := f.Check(c); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return nil
}

func (c *Campaign) gateCoverage() (int64, string, error) {
	trials := int64(0)
	for _, g := range c.Gates {
		trials += int64(g.Sites)
		if g.Sites == 0 {
			return trials, "", fmt.Errorf("%s: empty sweep", g.Circuit)
		}
		if cov := g.Coverage(); cov < gateCoverageFloor {
			return trials, "", fmt.Errorf("%s: coverage %.3f below floor %.2f (undetected: %v)",
				g.Circuit, cov, gateCoverageFloor, g.Undetected)
		}
	}
	return trials, fmt.Sprintf("%d circuits above %.0f%% coverage", len(c.Gates), 100*gateCoverageFloor), nil
}

// datapath returns the model's report (zero when missing) after the floors
// every datapath model shares: it exists, injected something, and missed no
// unmasked fault.
func (c *Campaign) datapath(model string) (DatapathReport, error) {
	for _, d := range c.Datapath {
		if d.Model != model {
			continue
		}
		if d.Injected == 0 {
			return d, fmt.Errorf("no %s faults injected", model)
		}
		if len(d.FalseNegatives) > 0 || d.Coverage() != 1 {
			return d, fmt.Errorf("coverage %.3f, false negatives %v — every unmasked %s fault must be detected",
				d.Coverage(), d.FalseNegatives, model)
		}
		return d, nil
	}
	return DatapathReport{}, fmt.Errorf("%s report missing", model)
}

func (c *Campaign) residueDigitFlips() (int64, string, error) {
	d, err := c.datapath("digit-flip")
	switch {
	case err != nil:
		return int64(d.Injected), "", err
	case d.Oracle != 0:
		return int64(d.Injected), "", fmt.Errorf("%d flips reached the value compare; the residue check must fire first", d.Oracle)
	case d.Recovered != d.Residue:
		return int64(d.Injected), "", fmt.Errorf("%d detected, %d recovered", d.Residue, d.Recovered)
	}
	return int64(d.Injected), fmt.Sprintf("%d/%d flips caught by residue, max latency %d cycles",
		d.Residue, d.Injected, d.MaxLatency), nil
}

func (c *Campaign) staleBypassCoverage() (int64, string, error) {
	d, err := c.datapath("stale-bypass")
	switch {
	case err != nil:
		return int64(d.Injected), "", err
	case d.Residue == 0:
		return int64(d.Injected), "", fmt.Errorf("residue check caught nothing — broadcast residue not being compared")
	}
	return int64(d.Injected), fmt.Sprintf("%d residue + %d oracle of %d unmasked",
		d.Residue, d.Oracle, d.Injected-d.Masked), nil
}

func (c *Campaign) watchdogRecovery() (int64, string, error) {
	s := c.Sched
	switch {
	case s.Injected == 0:
		return 0, "", fmt.Errorf("no drop faults injected")
	case s.Detected != s.Injected || s.Recovered != s.Injected:
		return int64(s.Injected), "", fmt.Errorf("%d injected, %d detected, %d recovered — watchdog must recover every lost wakeup",
			s.Injected, s.Detected, s.Recovered)
	case s.MaxLatency > s.Window+1000:
		return int64(s.Injected), "", fmt.Errorf("max detection latency %d cycles exceeds window %d", s.MaxLatency, s.Window)
	}
	return int64(s.Injected), fmt.Sprintf("%d/%d lost wakeups recovered, mean latency %.0f cycles",
		s.Recovered, s.Injected, s.MeanLatency), nil
}
