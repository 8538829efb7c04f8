// Package check is the differential verification subsystem: it proves the
// layers of the reproduction agree with each other, from gate netlists up to
// whole-machine simulations.
//
// The paper's argument rests on the claim that the RB machines are
// *architecturally identical* to the Baseline — only timing differs. This
// package makes that claim (and the arithmetic it depends on) continuously
// checkable, in seven layers (the Layers table, in run order):
//
//	oracle     — lockstep replay: every instruction the timing core commits
//	             is re-executed on an independent functional reference and
//	             cross-checked (registers, memory, PC); includes a
//	             fault-injection self-test proving the oracle catches a
//	             single flipped RB digit.
//	invariants — the four machine models (Baseline, RB-limited, RB-full,
//	             Ideal) run the same workload, must commit identical
//	             instruction streams, and must obey the expected IPC partial
//	             order (Ideal >= RB-full, Ideal >= Baseline).
//	backends   — the lockstep poll-vs-event scheduler gate: the event-driven
//	             calendar-queue backend must produce bit-identical
//	             core.Result values (and per-instruction stage timelines)
//	             to the poll-based oracle across the experiment matrix,
//	             including wrong-path squash cells.
//	adders     — cross-layer adder equivalence: gate netlists == internal/rb
//	             word-level ops == native int64 arithmetic, exhaustive at
//	             small widths and randomized plus boundary-pattern driven at
//	             64 bits, covering the h/f-cell RB adder, carry-save, and
//	             radix-4 forms.
//	converter  — the RB->TC converter netlist and the word-level conversion
//	             agree with native arithmetic over random redundant forms.
//	ops        — a per-opcode equivalence table: every ISA opcode is paired
//	             with independently written golden semantics (result
//	             functions, branch predicates, or behavioral program checks)
//	             and the table is asserted to cover the opcode space.
//	faults     — the fault-injection campaign's detection guarantees
//	             (internal/fault's Floors, one report each): gate-level
//	             coverage above its empirical floor, 100% residue detection
//	             of single RB digit flips, 100% combined coverage of
//	             stale-bypass substitution, and watchdog recovery of every
//	             dropped scheduler wakeup.
//
// cmd/rbcheck runs the full suite from the command line with -quick/-full
// tiers and JSON output for CI; go test ./internal/check runs it (plus the
// fuzz seed corpora) as part of the tier-1 gate.
package check

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Report is the machine-readable outcome of one check.
type Report struct {
	// Layer is the verification layer, one of the Layers names ("oracle",
	// "invariants", "backends", "adders", "converter", "ops", "faults");
	// Name identifies the check within it.
	Layer string `json:"layer"`
	Name  string `json:"name"`
	// Passed is the verdict; Detail explains a failure (or summarizes a
	// pass where the numbers are interesting).
	Passed bool   `json:"passed"`
	Detail string `json:"detail,omitempty"`
	// Trials counts the individual comparisons the check performed.
	Trials int64 `json:"trials"`
	// Millis is the wall-clock duration.
	Millis int64 `json:"duration_ms"`
}

// Options selects the suite tier.
type Options struct {
	// Full enables the deep tier: every workload, both widths, and larger
	// exhaustive widths and random-trial counts. The default quick tier is
	// the CI gate and finishes in seconds.
	Full bool
	// Seed drives the randomized trials; 0 selects a fixed default so runs
	// are reproducible unless a seed is chosen deliberately.
	Seed int64
}

// rng returns the deterministic random source for one check, decorrelated
// from other checks by name.
func (o Options) rng(name string) *rand.Rand {
	seed := o.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}

// pick returns quick in the quick tier and full in the full tier.
func (o Options) pick(quick, full int) int {
	if o.Full {
		return full
	}
	return quick
}

// BoundaryOperands is the 64-bit corner-case corpus every randomized
// equivalence check and fuzz target is seeded with: zero, ±1, the int64
// extremes and their neighbors, alternating-bit patterns, and the
// longword/quadword boundary values.
var BoundaryOperands = []uint64{
	0, 1, ^uint64(0), // 0, 1, -1
	2, ^uint64(1), // 2, -2
	0x8000000000000000,                     // MinInt64
	0x7FFFFFFFFFFFFFFF,                     // MaxInt64
	0x8000000000000001,                     // MinInt64 + 1
	0x7FFFFFFFFFFFFFFE,                     // MaxInt64 - 1
	0x5555555555555555, 0xAAAAAAAAAAAAAAAA, // alternating bits
	0x3333333333333333, 0xCCCCCCCCCCCCCCCC, // alternating pairs
	0x00000000FFFFFFFF, 0xFFFFFFFF00000000, // longword halves
	0x0000000080000000, 0xFFFFFFFF7FFFFFFF, // int32 boundaries
	1 << 63 >> 1, // 2^62
	0x0123456789ABCDEF,
}

// run executes one check body, timing it and converting panics (e.g. a
// datapath-check divergence) into failed reports.
func run(layer, name string, body func() (trials int64, detail string, err error)) Report {
	// Wall-clock use is deliberate here: Millis reports how long the check
	// ran, not anything about simulated state.
	start := time.Now() //rblint:allow determinism
	r := Report{Layer: layer, Name: name}
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.Passed = false
				r.Detail = fmt.Sprintf("panic: %v", p)
			}
		}()
		trials, detail, err := body()
		r.Trials = trials
		r.Detail = detail
		if err != nil {
			r.Passed = false
			r.Detail = err.Error()
		} else {
			r.Passed = true
		}
	}()
	r.Millis = time.Since(start).Milliseconds() //rblint:allow determinism
	return r
}

// Layer is one verification layer: its name and the checks it runs.
type Layer struct {
	Name string
	Run  func(Options) []Report
}

// Layers is the suite, in run order: Run executes every layer, and
// /v1/check looks a layer up here by name.
var Layers = []Layer{
	{"oracle", Oracle},
	{"invariants", Invariants},
	{"backends", Backends},
	{"adders", Adders},
	{"converter", Converter},
	{"ops", Ops},
	{"faults", Faults},
}

// Run executes the whole suite — every layer in Layers — and returns every
// report.
func Run(opts Options) []Report {
	var out []Report
	for _, l := range Layers {
		out = append(out, l.Run(opts)...)
	}
	return out
}

// Passed reports whether every report in the slice passed.
func Passed(reports []Report) bool {
	for _, r := range reports {
		if !r.Passed {
			return false
		}
	}
	return true
}

// almostGE reports a >= b up to a 1% tolerance. Per-workload IPC ordering is
// subject to genuine scheduling anomalies: greedy oldest-first select is not
// optimal, so removing a cycle of latency occasionally reorders issue in a
// way that loses a fraction of a percent on one workload (observed up to
// ~0.8% on gcc at width 4). The suite-level harmonic-mean ordering — the
// paper's actual claim — is asserted with a much tighter tolerance by the
// experiments tests.
func almostGE(a, b float64) bool {
	return a >= b*0.99 || math.Abs(a-b) < 1e-12
}
