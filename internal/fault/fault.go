// Package fault runs seeded, fully deterministic fault-injection campaigns
// over the repository's three layers (DESIGN.md §12):
//
//   - gate level: stuck-at-0, stuck-at-1, and single-evaluation transient
//     flips on every named net of the internal/gates adder and converter
//     netlists, detected by output comparison against the fault-free circuit
//     over a deterministic test-vector set, 64 fault sites per pass of the
//     bit-parallel engine (gates.PackedEvaluator);
//
//   - datapath level: RB digit flips and stale-bypass-value substitution on
//     the committed results of a simulated program, detected by the mod-3
//     residue check on the converter path (rb.Number.Residue3) and the
//     commit-time value compare, with recovery by conversion replay;
//
//   - scheduler level: dropped calendar wakeup events in the event-driven
//     backend, detected by the no-progress watchdog and recovered by
//     re-posting the abandoned entries (core.Options.Faults).
//
// Every campaign is a pure function of (Options.Seed, Options.Full): fault
// sites, test vectors, injected programs, and sampled drop ordinals all
// derive from seeded generators, so two runs at the same seed produce
// byte-identical reports. The detection floors a campaign must meet are
// the Floors table (floors.go), next to GridReport.Verify for the grid
// campaign: rbcheck's faults layer reports each floor as one check, and
// cmd/rbfault fails on the first that does not hold (Campaign.Verify). The
// service-level chaos leg (injected latency, cancellations, pool
// exhaustion against internal/server) lives in cmd/rbfault, which owns the
// HTTP plumbing.
package fault

import (
	"math/rand"

	"repro/internal/core"
)

// Options configures a campaign.
type Options struct {
	// Full widens the sweep: wider gate netlists, more test vectors, longer
	// injected programs, more sampled drop ordinals.
	Full bool
	// Seed drives every pseudo-random choice in the campaign.
	Seed int64
}

// rng derives an independent, deterministic stream for one campaign stage.
func (o Options) rng(stage int64) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed*1000003 + stage))
}

// Campaign is one complete fault-injection sweep.
type Campaign struct {
	Seed int64
	Full bool

	Gates    []GateReport
	Datapath []DatapathReport
	Sched    SchedReport
}

// Run executes the gate, datapath, and scheduler campaigns.
func Run(opts Options) (*Campaign, error) {
	c := &Campaign{Seed: opts.Seed, Full: opts.Full}
	var err error
	if c.Gates, err = runGates(opts); err != nil {
		return nil, err
	}
	// The datapath and scheduler legs inject into the same seeded program;
	// decode it once and share (the decode is read-only under injection).
	prog := campaignProgram(opts)
	dec, err := core.DecodeProgram(prog, 1<<20)
	if err != nil {
		return nil, err
	}
	if c.Datapath, err = runDatapath(opts, prog, dec); err != nil {
		return nil, err
	}
	if c.Sched, err = runSched(opts, dec); err != nil {
		return nil, err
	}
	return c, nil
}
