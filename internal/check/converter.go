package check

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/rb"
)

// The converter layer: the RB -> 2's-complement converter netlist and the
// word-level conversion (Number.Uint) must agree with native arithmetic over
// the whole redundant representation class — the converter sits on every
// path out of the RB domain, so a bug here corrupts architectural state.

// Converter runs the converter-equivalence layer. Like the adders layer,
// each netlist check is handed the netlist it sweeps and runs it on the
// bit-parallel 64-lane engine.
func Converter(opts Options) []Report {
	var out []Report
	for _, n := range []int{4, 8} {
		n := n
		out = append(out, run("converter", fmt.Sprintf("gates-exhaustive/%d-digit", n),
			func() (int64, string, error) { return converterExhaustive(gates.RBToTCConverter(n)) }))
	}
	out = append(out, run("converter", "gates/64-digit",
		func() (int64, string, error) { return converter64(opts, gates.RBToTCConverter(64)) }))
	out = append(out, run("converter", "redundant-form-roundtrip",
		func() (int64, string, error) { return redundantFormRoundTrip(opts) }))
	return out
}

// converterExhaustive proves the converter netlist maps every valid n-digit
// redundant input to its value mod 2^n, 64 digit vectors per packed pass.
func converterExhaustive(r *gates.ConverterResult) (int64, string, error) {
	n := len(r.Plus)
	vecs := digitVectors(n)
	mask := uint64(1)<<uint(n) - 1
	ev := r.C.PackedEvaluator()
	in := make([]uint64, 2*n)
	got := make([]uint64, 0, n)
	var trials int64
	for bi := 0; bi < len(vecs); bi += 64 {
		lanes := len(vecs) - bi
		if lanes > 64 {
			lanes = 64
		}
		var plus, minus [64]uint64
		for k := 0; k < lanes; k++ {
			plus[k], minus[k] = vecs[bi+k][0], vecs[bi+k][1]
		}
		gates.PackLanes(in[:n], plus[:lanes], n)
		gates.PackLanes(in[n:2*n], minus[:lanes], n)
		var err error
		got, err = ev.Eval(in, r.Out, got[:0])
		if err != nil {
			return trials, "", err
		}
		for k := 0; k < lanes; k++ {
			v := vecs[bi+k]
			trials++
			out := gates.LaneWord(got, k)
			if want := (v[0] - v[1]) & mask; out != want {
				return trials, "", fmt.Errorf("converter(%d): plus=%#x minus=%#x -> %#x, want %#x",
					n, v[0], v[1], out, want)
			}
		}
	}
	return trials, fmt.Sprintf("all %d digit vectors", trials), nil
}

// converter64 proves the 64-digit converter netlist agrees with the
// word-level conversion over boundary values and random redundant forms,
// batched 64 operands per packed pass via bit-matrix transposes.
func converter64(opts Options, r *gates.ConverterResult) (int64, string, error) {
	rnd := opts.rng("converter-forms")
	type operand struct{ p, m, want uint64 }
	var cases []operand
	add := func(n rb.Number) {
		p, m := n.Components()
		cases = append(cases, operand{p, m, n.Uint()})
	}
	for _, v := range BoundaryOperands {
		add(rb.FromUint(v))
		add(rb.RedundantForm(v, rnd))
	}
	for i := 0; i < opts.pick(500, 5000); i++ {
		add(rb.RedundantForm(rnd.Uint64(), rnd))
	}
	ev := r.C.PackedEvaluator()
	in := make([]uint64, 128)
	got := make([]uint64, 0, 64)
	var trials int64
	for bi := 0; bi < len(cases); bi += 64 {
		lanes := len(cases) - bi
		if lanes > 64 {
			lanes = 64
		}
		var plus, minus [64]uint64
		for k := 0; k < lanes; k++ {
			plus[k], minus[k] = cases[bi+k].p, cases[bi+k].m
		}
		gates.Transpose64(&plus)
		gates.Transpose64(&minus)
		copy(in[:64], plus[:])
		copy(in[64:128], minus[:])
		var err error
		got, err = ev.Eval(in, r.Out, got[:0])
		if err != nil {
			return trials, "", err
		}
		var out [64]uint64
		copy(out[:], got)
		gates.Transpose64(&out)
		for k := 0; k < lanes; k++ {
			trials++
			c := cases[bi+k]
			if out[k] != c.want {
				return trials, "", fmt.Errorf("converter(64): plus=%#x minus=%#x -> %#x, want %#x",
					c.p, c.m, out[k], c.want)
			}
		}
	}
	return trials, "netlist vs word-level conversion", nil
}

// redundantFormRoundTrip proves the random re-encoder used throughout the
// suite is itself value-preserving — otherwise every "redundant form" trial
// above would be testing against the wrong expected value.
func redundantFormRoundTrip(opts Options) (int64, string, error) {
	rnd := opts.rng("roundtrip")
	var trials int64
	for _, v := range BoundaryOperands {
		for i := 0; i < 8; i++ {
			trials++
			if got := rb.RedundantForm(v, rnd).Uint(); got != v {
				return trials, "", fmt.Errorf("RedundantForm(%#x) has value %#x", v, got)
			}
		}
	}
	for i := 0; i < opts.pick(2000, 20000); i++ {
		trials++
		v := rnd.Uint64()
		if got := rb.RedundantForm(v, rnd).Uint(); got != v {
			return trials, "", fmt.Errorf("RedundantForm(%#x) has value %#x", v, got)
		}
	}
	return trials, "re-encoder value preservation", nil
}
