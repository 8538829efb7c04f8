package check

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/gates"
)

// The netlist checks of the adders and converter layers take the netlist
// they sweep from their caller. These tests hand them real netlists and
// netlists with one output inverted, and pin each check's trial count to
// the closed-form size of its vector set.

// invertTC inverts output k of an adder (Sum bits, then Cout); k < 0
// leaves it intact.
func invertTC(name string, r *gates.AdderResult, k int) tcAdder {
	switch {
	case k == len(r.Sum):
		r.Cout = r.C.Not(r.Cout)
	case k >= 0:
		r.Sum[k] = r.C.Not(r.Sum[k])
	}
	return tcAdder{name, r}
}

// invertRB inverts output k of an RB adder (SumPlus, SumMinus, CoutPlus,
// CoutMinus, in that order); k < 0 leaves it intact.
func invertRB(r *gates.RBAdderResult, k int) *gates.RBAdderResult {
	n := len(r.SumPlus)
	switch {
	case k < 0:
	case k < n:
		r.SumPlus[k] = r.C.Not(r.SumPlus[k])
	case k < 2*n:
		r.SumMinus[k-n] = r.C.Not(r.SumMinus[k-n])
	case k == 2*n:
		r.CoutPlus = r.C.Not(r.CoutPlus)
	default:
		r.CoutMinus = r.C.Not(r.CoutMinus)
	}
	return r
}

// invertConv inverts output k of a converter; k < 0 leaves it intact.
func invertConv(r *gates.ConverterResult, k int) *gates.ConverterResult {
	if k >= 0 {
		r.Out[k] = r.C.Not(r.Out[k])
	}
	return r
}

// netlistCase is one netlist check run on a fresh netlist whose output k is
// inverted (k < 0: the real netlist).
type netlistCase struct {
	// report is the layer and name of the check's report; defect names the
	// netlist that gets the inverted output when the check sweeps two.
	report, defect string
	// outputs is how many outputs the check compares; each is inverted in
	// turn.
	outputs int
	// trials is the check's vector count on the real netlist.
	trials int64
	run    func(k int) (int64, string, error)
	// vector matches a failure detail that names the failing vector.
	vector *regexp.Regexp
}

// netlistCases lists every netlist check of the adders and converter layers
// at opts' tier.
func netlistCases(opts Options) []netlistCase {
	var cases []netlistCase
	for _, n := range []int{4, 8} {
		n := n
		tc := regexp.MustCompile(fmt.Sprintf(`^(ripple-carry|kogge-stone)\(%d\): \d+\+\d+ = sum \d+ cout (true|false), want \d+ cout (true|false)$`, n))
		cases = append(cases,
			netlistCase{fmt.Sprintf("adders tc-gates-exhaustive/%d-bit", n), "ripple-carry", n + 1, 2 << (2 * n),
				func(k int) (int64, string, error) {
					return tcGatesExhaustive(invertTC("ripple-carry", gates.RippleCarryAdder(n), k),
						tcAdder{"kogge-stone", gates.KoggeStoneAdder(n)})
				}, tc},
			netlistCase{fmt.Sprintf("adders tc-gates-exhaustive/%d-bit", n), "kogge-stone", n + 1, 2 << (2 * n),
				func(k int) (int64, string, error) {
					return tcGatesExhaustive(tcAdder{"ripple-carry", gates.RippleCarryAdder(n)},
						invertTC("kogge-stone", gates.KoggeStoneAdder(n), k))
				}, tc},
			netlistCase{fmt.Sprintf("converter gates-exhaustive/%d-digit", n), "", n, pow3(n),
				func(k int) (int64, string, error) {
					return converterExhaustive(invertConv(gates.RBToTCConverter(n), k))
				}, regexp.MustCompile(fmt.Sprintf(`^converter\(%d\): plus=0x[0-9a-f]+ minus=0x[0-9a-f]+ -> 0x[0-9a-f]+, want 0x[0-9a-f]+$`, n))})
	}
	rbN := opts.pick(4, 6)
	b := int64(len(BoundaryOperands))
	return append(cases,
		netlistCase{fmt.Sprintf("adders rb-gates-exhaustive/%d-digit", rbN), "", 2*rbN + 2, pow3(2 * rbN),
			func(k int) (int64, string, error) { return rbGatesExhaustive(invertRB(gates.RBAdder(rbN), k)) },
			regexp.MustCompile(fmt.Sprintf(`^RBAdder\(%d\): (sum encoding overlap plus=0x[0-9a-f]+ minus=0x[0-9a-f]+ for )?a=\[\d+ \d+\] b=\[\d+ \d+\]`, rbN))},
		// The 64-digit check compares the sum mod 2^64, so only the sum
		// outputs are observable.
		netlistCase{"adders rb-gates/64-digit", "", 128, b*b + int64(opts.pick(300, 3000)),
			func(k int) (int64, string, error) { return rbGates64(opts, invertRB(gates.RBAdder(64), k)) },
			regexp.MustCompile(`^RBAdder\(64\): (sum encoding overlap for )?0x[0-9a-f]+ \+ 0x[0-9a-f]+`)},
		netlistCase{"converter gates/64-digit", "", 64, 2*b + int64(opts.pick(500, 5000)),
			func(k int) (int64, string, error) { return converter64(opts, invertConv(gates.RBToTCConverter(64), k)) },
			regexp.MustCompile(`^converter\(64\): plus=0x[0-9a-f]+ minus=0x[0-9a-f]+ -> 0x[0-9a-f]+, want 0x[0-9a-f]+$`)},
	)
}

func pow3(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 3
	}
	return p
}

// TestNetlistChecksCatchAnInvertedOutput runs every netlist check on its
// real netlist, which must pass with the closed-form trial count, and then
// once per observable output on a netlist with that output inverted, which
// must fail with a detail naming the failing vector.
func TestNetlistChecksCatchAnInvertedOutput(t *testing.T) {
	for _, c := range netlistCases(Options{}) {
		name := strings.TrimSpace(c.report + " " + c.defect)
		if r := run("netlist", name, func() (int64, string, error) { return c.run(-1) }); !r.Passed || r.Trials != c.trials {
			t.Errorf("%s on the real netlist: passed=%v trials=%d (want %d): %s", name, r.Passed, r.Trials, c.trials, r.Detail)
		}
		for k := 0; k < c.outputs; k++ {
			r := run("netlist", name, func() (int64, string, error) { return c.run(k) })
			if r.Passed {
				t.Errorf("%s with output %d inverted passed (%d trials)", name, k, r.Trials)
				continue
			}
			if !c.vector.MatchString(r.Detail) || r.Trials < 1 || r.Trials > c.trials {
				t.Errorf("%s with output %d inverted: trials %d, detail %q names no vector", name, k, r.Trials, r.Detail)
			}
		}
	}
}

// TestNetlistCheckTrials pins the trial count of each netlist report of the
// adders and converter layers to its closed-form vector count — 2·2^(2n)
// operand pairs over two TC adders, 3^(2n) RB digit-vector pairs, 3^n
// converter inputs, |BoundaryOperands|² (RB adder) or 2·|BoundaryOperands|
// (converter) plus the tier's random count at 64 digits — at both tiers.
func TestNetlistCheckTrials(t *testing.T) {
	for _, full := range []bool{false, true} {
		if full && testing.Short() {
			continue
		}
		opts := Options{Full: full}
		got := map[string]Report{}
		for _, r := range append(Adders(opts), Converter(opts)...) {
			got[r.Layer+" "+r.Name] = r
		}
		for _, c := range netlistCases(opts) {
			r, ok := got[c.report]
			switch {
			case !ok:
				t.Errorf("full=%v: no %s report", full, c.report)
			case !r.Passed || r.Trials != c.trials:
				t.Errorf("full=%v: %s passed=%v trials=%d, want %d: %s", full, c.report, r.Passed, r.Trials, c.trials, r.Detail)
			}
		}
	}
}
