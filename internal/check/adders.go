package check

import (
	"fmt"
	"math/bits"

	"repro/internal/gates"
	"repro/internal/rb"
)

// The adders layer: cross-layer equivalence of the arithmetic stack. The
// gate netlists, internal/rb's word-level operations, and native int64
// arithmetic must compute the same function — exhaustively at small widths,
// and over boundary patterns plus random redundant forms at 64 bits.

// Adders runs the adder-equivalence layer. Each netlist check is handed the
// netlist it sweeps and streams its vectors through the bit-parallel 64-lane
// engine (gates.PackedEvaluator), which internal/gates pins lane for lane to
// the scalar Circuit.Eval walk.
func Adders(opts Options) []Report {
	var out []Report
	// 2's-complement adder netlists, exhaustive over all operand pairs.
	for _, n := range []int{4, 8} {
		n := n
		out = append(out, run("adders", fmt.Sprintf("tc-gates-exhaustive/%d-bit", n),
			func() (int64, string, error) {
				return tcGatesExhaustive(
					tcAdder{"ripple-carry", gates.RippleCarryAdder(n)},
					tcAdder{"kogge-stone", gates.KoggeStoneAdder(n)})
			}))
	}
	// RB adder netlist, exhaustive over all digit-vector pairs.
	rbN := opts.pick(4, 6)
	out = append(out, run("adders", fmt.Sprintf("rb-gates-exhaustive/%d-digit", rbN),
		func() (int64, string, error) { return rbGatesExhaustive(gates.RBAdder(rbN)) }))
	// 64-bit word-level RB arithmetic vs native.
	out = append(out, run("adders", "rb-word/64-bit",
		func() (int64, string, error) { return rbWord64(opts) }))
	// 64-bit RB adder netlist vs native.
	out = append(out, run("adders", "rb-gates/64-digit",
		func() (int64, string, error) { return rbGates64(opts, gates.RBAdder(64)) }))
	// Carry-save and radix-4 redundant forms vs native.
	out = append(out, run("adders", "carry-save",
		func() (int64, string, error) { return carrySaveCheck(opts) }))
	out = append(out, run("adders", "radix-4",
		func() (int64, string, error) { return radix4Check(opts) }))
	return out
}

// tcAdder is one named 2's-complement adder netlist.
type tcAdder struct {
	name string
	r    *gates.AdderResult
}

// tcGatesExhaustive proves each n-bit adder netlist (all of one width)
// computes n-bit addition for every operand pair, 64 pairs per packed pass:
// the inner operand b enumerates consecutive integers, so both the input
// lanes and the expected sum lanes are LaneCounter patterns — packing,
// evaluation, and comparison are all O(width) per block.
func tcGatesExhaustive(adders ...tcAdder) (int64, string, error) {
	n := len(adders[0].r.A)
	mask := uint64(1)<<uint(n) - 1
	var trials int64
	for _, ad := range adders {
		ev := ad.r.C.PackedEvaluator()
		outs := append(append([]gates.Node(nil), ad.r.Sum...), ad.r.Cout)
		in := make([]uint64, 2*n)
		got := make([]uint64, 0, n+1)
		for a := uint64(0); a <= mask; a++ {
			for j := 0; j < n; j++ {
				in[j] = gates.Broadcast(a>>uint(j)&1 != 0)
			}
			for b0 := uint64(0); b0 <= mask; b0 += 64 {
				lanes := 64
				if rem := mask - b0 + 1; rem < 64 {
					lanes = int(rem)
				}
				for j := 0; j < n; j++ {
					in[n+j] = gates.LaneCounter(b0, j)
				}
				var err error
				got, err = ev.Eval(in, outs, got[:0])
				if err != nil {
					return trials, "", err
				}
				// Lane k's expected sum is a+b0+k — consecutive again, so
				// the whole block compares word-wise against LaneCounter.
				var bad uint64
				for j := 0; j <= n; j++ {
					bad |= got[j] ^ gates.LaneCounter(a+b0, j)
				}
				if bad &= gates.LaneMask(lanes); bad == 0 {
					trials += int64(lanes)
					continue
				}
				k := bits.TrailingZeros64(bad)
				trials += int64(k) + 1
				b := b0 + uint64(k)
				sum := gates.LaneWord(got[:n], k)
				cout := got[n]>>uint(k)&1 != 0
				want := a + b
				return trials, "", fmt.Errorf("%s(%d): %d+%d = sum %d cout %v, want %d cout %v",
					ad.name, n, a, b, sum, cout, want&mask, want>>uint(n) != 0)
			}
		}
	}
	return trials, fmt.Sprintf("all %d operand pairs, both netlists", (mask+1)*(mask+1)), nil
}

// digitVectors enumerates every valid n-digit (plus, minus) component pair:
// per digit the encodings are (0,0), (1,0), (0,1) — 3^n vectors.
func digitVectors(n int) [][2]uint64 {
	out := [][2]uint64{{0, 0}}
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		next := make([][2]uint64, 0, 3*len(out))
		for _, v := range out {
			next = append(next, v, [2]uint64{v[0] | bit, v[1]}, [2]uint64{v[0], v[1] | bit})
		}
		out = next
	}
	return out
}

// digitValue is the signed value of an n-digit component pair.
func digitValue(plus, minus uint64) int64 { return int64(plus) - int64(minus) }

// rbGatesExhaustive proves the RB adder netlist computes exact signed-digit
// addition — value(sum) + carry*2^n == value(a) + value(b) — for every pair
// of n-digit redundant operands, and that the sum encoding stays disjoint.
// The a operand broadcasts across lanes; each packed pass sweeps 64 b
// vectors at once.
func rbGatesExhaustive(r *gates.RBAdderResult) (int64, string, error) {
	n := len(r.APlus)
	vecs := digitVectors(n)
	ev := r.C.PackedEvaluator()
	outs := make([]gates.Node, 0, 2*n+2)
	outs = append(outs, r.SumPlus...)
	outs = append(outs, r.SumMinus...)
	outs = append(outs, r.CoutPlus, r.CoutMinus)
	in := make([]uint64, 4*n)
	got := make([]uint64, 0, 2*n+2)
	var trials int64
	for _, a := range vecs {
		for j := 0; j < n; j++ {
			in[j] = gates.Broadcast(a[0]>>uint(j)&1 != 0)
			in[n+j] = gates.Broadcast(a[1]>>uint(j)&1 != 0)
		}
		for bi := 0; bi < len(vecs); bi += 64 {
			lanes := len(vecs) - bi
			if lanes > 64 {
				lanes = 64
			}
			var bp, bm [64]uint64
			for k := 0; k < lanes; k++ {
				bp[k], bm[k] = vecs[bi+k][0], vecs[bi+k][1]
			}
			gates.PackLanes(in[2*n:3*n], bp[:lanes], n)
			gates.PackLanes(in[3*n:4*n], bm[:lanes], n)
			var err error
			got, err = ev.Eval(in, outs, got[:0])
			if err != nil {
				return trials, "", err
			}
			for k := 0; k < lanes; k++ {
				b := vecs[bi+k]
				trials++
				sp := gates.LaneWord(got[:n], k)
				sm := gates.LaneWord(got[n:2*n], k)
				if sp&sm != 0 {
					return trials, "", fmt.Errorf("RBAdder(%d): sum encoding overlap plus=%#x minus=%#x for a=%v b=%v",
						n, sp, sm, a, b)
				}
				carry := int64(0)
				if got[2*n]>>uint(k)&1 != 0 {
					carry++
				}
				if got[2*n+1]>>uint(k)&1 != 0 {
					carry--
				}
				gotVal := digitValue(sp, sm) + carry<<uint(n)
				want := digitValue(a[0], a[1]) + digitValue(b[0], b[1])
				if gotVal != want {
					return trials, "", fmt.Errorf("RBAdder(%d): a=%v b=%v: value %d (carry %d), want %d",
						n, a, b, gotVal, carry, want)
				}
			}
		}
	}
	return trials, fmt.Sprintf("all %d digit-vector pairs", len(vecs)*len(vecs)), nil
}

// operandPairs yields the 64-bit differential corpus: every boundary pair
// plus count random pairs.
func operandPairs(opts Options, name string, count int, visit func(x, y uint64)) int64 {
	var trials int64
	for _, x := range BoundaryOperands {
		for _, y := range BoundaryOperands {
			visit(x, y)
			trials++
		}
	}
	rnd := opts.rng(name)
	for i := 0; i < count; i++ {
		visit(rnd.Uint64(), rnd.Uint64())
		trials++
	}
	return trials
}

// rbWord64 proves the 64-bit word-level RB operations — the parallel adder,
// subtraction, and the digit-serial reference model — agree with native
// integer arithmetic, including on non-canonical redundant operand forms.
func rbWord64(opts Options) (int64, string, error) {
	rnd := opts.rng("rb-word-forms")
	var firstErr error
	trials := operandPairs(opts, "rb-word/64-bit", opts.pick(2000, 50000), func(x, y uint64) {
		if firstErr != nil {
			return
		}
		// Alternate canonical and randomly re-encoded redundant forms: the
		// adders must be correct for the whole representation class.
		nx, ny := rb.FromUint(x), rb.FromUint(y)
		if rnd.Intn(2) == 0 {
			nx = rb.RedundantForm(x, rnd)
		}
		if rnd.Intn(2) == 0 {
			ny = rb.RedundantForm(y, rnd)
		}
		if add, _ := rb.Add(nx, ny); add.Uint() != x+y {
			firstErr = fmt.Errorf("rb.Add(%#x, %#x) = %#x, want %#x", x, y, add.Uint(), x+y)
			return
		}
		if sub, _ := rb.Sub(nx, ny); sub.Uint() != x-y {
			firstErr = fmt.Errorf("rb.Sub(%#x, %#x) = %#x, want %#x", x, y, sub.Uint(), x-y)
			return
		}
		if ds, _ := rb.AddDigitSerial(nx, ny); ds.Uint() != x+y {
			firstErr = fmt.Errorf("rb.AddDigitSerial(%#x, %#x) = %#x, want %#x", x, y, ds.Uint(), x+y)
		}
	})
	return trials, "add, sub, digit-serial vs native", firstErr
}

// rbGates64 proves the full-width RB adder netlist agrees with native 64-bit
// arithmetic (mod 2^64, where the carry-out digit vanishes) over boundary
// patterns and random redundant forms. The redundant operand forms are drawn
// in visit order, then swept 64 pairs per packed pass via bit-matrix
// transposes.
func rbGates64(opts Options, r *gates.RBAdderResult) (int64, string, error) {
	rnd := opts.rng("rb-gates-forms")
	type pair struct{ x, y, xp, xm, yp, ym uint64 }
	var pairs []pair
	trials := operandPairs(opts, "rb-gates/64-digit", opts.pick(300, 3000), func(x, y uint64) {
		nx, ny := rb.RedundantForm(x, rnd), rb.RedundantForm(y, rnd)
		xp, xm := nx.Components()
		yp, ym := ny.Components()
		pairs = append(pairs, pair{x, y, xp, xm, yp, ym})
	})
	ev := r.C.PackedEvaluator()
	outs := make([]gates.Node, 0, 128)
	outs = append(outs, r.SumPlus...)
	outs = append(outs, r.SumMinus...)
	in := make([]uint64, 256)
	got := make([]uint64, 0, 128)
	for bi := 0; bi < len(pairs); bi += 64 {
		lanes := len(pairs) - bi
		if lanes > 64 {
			lanes = 64
		}
		var xp, xm, yp, ym [64]uint64
		for k := 0; k < lanes; k++ {
			p := pairs[bi+k]
			xp[k], xm[k], yp[k], ym[k] = p.xp, p.xm, p.yp, p.ym
		}
		gates.Transpose64(&xp)
		gates.Transpose64(&xm)
		gates.Transpose64(&yp)
		gates.Transpose64(&ym)
		copy(in[0:64], xp[:])
		copy(in[64:128], xm[:])
		copy(in[128:192], yp[:])
		copy(in[192:256], ym[:])
		var err error
		got, err = ev.Eval(in, outs, got[:0])
		if err != nil {
			return trials, "", err
		}
		var sp, sm [64]uint64
		copy(sp[:], got[:64])
		copy(sm[:], got[64:128])
		gates.Transpose64(&sp)
		gates.Transpose64(&sm)
		for k := 0; k < lanes; k++ {
			p := pairs[bi+k]
			if sp[k]&sm[k] != 0 {
				return trials, "", fmt.Errorf("RBAdder(64): sum encoding overlap for %#x + %#x", p.x, p.y)
			}
			if gotVal := sp[k] - sm[k]; gotVal != p.x+p.y {
				return trials, "", fmt.Errorf("RBAdder(64): %#x + %#x = %#x, want %#x", p.x, p.y, gotVal, p.x+p.y)
			}
		}
	}
	return trials, "gate netlist vs native mod 2^64", nil
}

// carrySaveCheck proves the carry-save accumulator form agrees with native
// arithmetic: single additions, accumulation chains, carry-save/carry-save
// addition, and conversion into the RB domain.
func carrySaveCheck(opts Options) (int64, string, error) {
	rnd := opts.rng("carry-save")
	var firstErr error
	trials := operandPairs(opts, "carry-save", opts.pick(2000, 20000), func(x, y uint64) {
		if firstErr != nil {
			return
		}
		cs := rb.CSFromUint(x).AddUint(y)
		if cs.Uint() != x+y {
			firstErr = fmt.Errorf("CarrySave %#x + %#x = %#x, want %#x", x, y, cs.Uint(), x+y)
			return
		}
		two := rb.CSFromUint(x).AddUint(y).Add(rb.CSFromUint(y).AddUint(x))
		if two.Uint() != 2*(x+y) {
			firstErr = fmt.Errorf("CarrySave.Add: got %#x, want %#x", two.Uint(), 2*(x+y))
			return
		}
		if n := cs.ToRB(); n.Uint() != x+y {
			firstErr = fmt.Errorf("CarrySave.ToRB: got %#x, want %#x", n.Uint(), x+y)
		}
	})
	if firstErr != nil {
		return trials, "", firstErr
	}
	// Accumulation chains: the redundant accumulator never propagates a carry
	// mid-chain, so long sums must still land on the native total.
	for chain := 0; chain < opts.pick(20, 200); chain++ {
		var want uint64
		cs := rb.CSFromUint(0)
		for i := 0; i < 64; i++ {
			v := rnd.Uint64()
			want += v
			cs = cs.AddUint(v)
			trials++
		}
		if cs.Uint() != want {
			return trials, "", fmt.Errorf("64-term carry-save chain: got %#x, want %#x", cs.Uint(), want)
		}
	}
	return trials, "add, chains, ToRB vs native", nil
}

// radix4Check proves the radix-4 signed-digit form agrees with native
// arithmetic and that its carry chains stay within the one-position bound
// that makes the representation constant-depth.
func radix4Check(opts Options) (int64, string, error) {
	var firstErr error
	trials := operandPairs(opts, "radix-4", opts.pick(2000, 20000), func(x, y uint64) {
		if firstErr != nil {
			return
		}
		rx, ry := rb.R4FromUint(x), rb.R4FromUint(y)
		sum := rb.R4Add(rx, ry)
		if sum.Uint() != x+y {
			firstErr = fmt.Errorf("R4Add(%#x, %#x) = %#x, want %#x", x, y, sum.Uint(), x+y)
			return
		}
		if chain := rb.R4MaxCarryChain(rx, ry); chain > 1 {
			firstErr = fmt.Errorf("R4Add(%#x, %#x): carry chain length %d > 1", x, y, chain)
			return
		}
		// Cross-form: an RB value carried into the radix-4 domain keeps its
		// value.
		if r4 := rb.R4FromRB(rb.FromUint(x)); r4.Uint() != x {
			firstErr = fmt.Errorf("R4FromRB(%#x) = %#x", x, r4.Uint())
		}
	})
	return trials, "add, carry-chain bound, RB crossover vs native", firstErr
}
