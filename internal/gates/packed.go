package gates

// Bit-parallel (64-lane) netlist evaluation: the classic software counterpart
// to the hardware adder evaluations the paper benchmarks against. One uint64
// per net holds 64 independent evaluations — lane k's value in bit k — and
// every gate becomes one word-wide bitwise operation, so a whole block of 64
// test vectors (or 64 fault sites, via per-lane fault masks) resolves in a
// single topological walk of the circuit.
//
// The engine is the fast path under the exhaustive/randomized equivalence
// layers of internal/check and the gate leg of internal/fault's campaign;
// the scalar Eval/EvalFault walk stays as the oracle it is differentially
// pinned to (packed_test.go, FuzzPackedEvalEquivalence).
//
// Determinism contract: lane k of PackedEval equals a scalar Eval of lane
// k's assignment, bit for bit, for every input — valid encodings or not —
// and a PackedFault on lane k equals the scalar EvalFault of that lane's
// single fault. Consumers that preserve their lane -> vector ordering
// therefore produce byte-identical reports on either engine.

import (
	"fmt"
	"math/bits"
)

// PackedFault is one gate-level fault restricted to a set of lanes: the
// model is applied to Net only in the lanes whose bits are set in Lanes.
// Sweeping 64 fault sites in one pass means 64 PackedFaults with disjoint
// single-bit lane masks.
type PackedFault struct {
	Net   Node
	Model FaultModel
	Lanes uint64
}

// PackedEvaluator evaluates a circuit 64 lanes at a time. It owns reusable
// lane buffers, so steady-state evaluation performs no allocations; it is
// not safe for concurrent use (create one per goroutine — the Circuit
// itself is read-only and shared).
type PackedEvaluator struct {
	c      *Circuit
	vals   []uint64
	sorted []PackedFault // fault list ordered by net for the single walk
}

// PackedEvaluator returns a reusable 64-lane evaluator for the circuit.
func (c *Circuit) PackedEvaluator() *PackedEvaluator {
	return &PackedEvaluator{c: c, vals: make([]uint64, len(c.ops))}
}

// Eval evaluates 64 lanes at once. assignment holds one word per primary
// input (in Input creation order), bit k being lane k's value of that input.
// The outputs' lane words are appended to dst (pass dst[:0] of a reusable
// slice for an allocation-free call) and returned in outs order.
func (e *PackedEvaluator) Eval(assignment []uint64, outs []Node, dst []uint64) ([]uint64, error) {
	return e.EvalFault(assignment, outs, nil, dst)
}

// EvalFault is Eval with per-lane faults active: after a net's fault-free
// lane word is computed, each fault on that net overrides (stuck-at) or
// inverts (flip) the bits selected by its lane mask before fanout sees them.
// Faults are applied in ascending net order, ties in slice order; faults
// with overlapping lane masks on the same net compose in that order (the
// scalar EvalFault's map semantics — one override per net — correspond to
// the disjoint-lanes case every differential consumer uses).
func (e *PackedEvaluator) EvalFault(assignment []uint64, outs []Node, faults []PackedFault, dst []uint64) ([]uint64, error) {
	c := e.c
	if len(assignment) != len(c.inputs) {
		return dst, fmt.Errorf("gates: %d assignments for %d inputs", len(assignment), len(c.inputs))
	}
	sorted, err := e.orderFaults(faults)
	if err != nil {
		return dst, err
	}
	if len(e.vals) < len(c.ops) {
		// One-time growth on first use (or a larger circuit); amortized free.
		e.vals = make([]uint64, len(c.ops))
	}
	vals := e.vals[:len(c.ops)]
	na, nb := c.a, c.b
	// One register compare per gate decides "any fault here?"; the walk only
	// touches the sorted list at actual fault nets.
	nextFault := Node(-1)
	if len(sorted) > 0 {
		nextFault = sorted[0].Net
	}
	ai, fi := 0, 0
	for i, op := range c.ops {
		var v uint64
		switch op {
		case OpInput:
			v = assignment[ai]
			ai++
		case OpConst:
			if c.val[i] {
				v = ^uint64(0)
			}
		case OpNot:
			v = ^vals[na[i]]
		case OpAnd:
			v = vals[na[i]] & vals[nb[i]]
		case OpOr:
			v = vals[na[i]] | vals[nb[i]]
		case OpXor:
			v = vals[na[i]] ^ vals[nb[i]]
		}
		if Node(i) == nextFault {
			for fi < len(sorted) && sorted[fi].Net == Node(i) {
				switch sorted[fi].Model {
				case StuckAt0:
					v &^= sorted[fi].Lanes
				case StuckAt1:
					v |= sorted[fi].Lanes
				case Flip:
					v ^= sorted[fi].Lanes
				}
				fi++
			}
			nextFault = Node(-1)
			if fi < len(sorted) {
				nextFault = sorted[fi].Net
			}
		}
		vals[i] = v
	}
	for _, o := range outs {
		if int(o) < 0 || int(o) >= len(c.ops) {
			return dst, fmt.Errorf("gates: output net %d out of range", o)
		}
		dst = append(dst, vals[o])
	}
	return dst, nil
}

// orderFaults validates the fault nets and returns the list sorted by net.
// Campaign sweeps already arrive in net order (sites are enumerated
// net-major), so the common case is one validation pass over the caller's
// slice; only an out-of-order list is copied into the evaluator's reusable
// buffer and insertion-sorted.
func (e *PackedEvaluator) orderFaults(faults []PackedFault) ([]PackedFault, error) {
	if len(faults) == 0 {
		return nil, nil
	}
	ordered := true
	for i, f := range faults {
		if int(f.Net) < 0 || int(f.Net) >= len(e.c.ops) {
			return nil, fmt.Errorf("gates: fault net %d out of range", f.Net)
		}
		if i > 0 && faults[i-1].Net > f.Net {
			ordered = false
		}
	}
	if ordered {
		return faults, nil
	}
	e.sorted = e.sorted[:0]
	for _, f := range faults {
		j := len(e.sorted)
		e.sorted = append(e.sorted, f)
		for j > 0 && e.sorted[j-1].Net > f.Net {
			e.sorted[j-1], e.sorted[j] = e.sorted[j], e.sorted[j-1]
			j--
		}
	}
	return e.sorted, nil
}

// PackedEval is the allocating convenience form of PackedEvaluator.Eval.
func (c *Circuit) PackedEval(assignment []uint64, outs []Node) ([]uint64, error) {
	return c.PackedEvaluator().Eval(assignment, outs, nil)
}

// PackedEvalFault is the allocating convenience form of
// PackedEvaluator.EvalFault.
func (c *Circuit) PackedEvalFault(assignment []uint64, outs []Node, faults []PackedFault) ([]uint64, error) {
	return c.PackedEvaluator().EvalFault(assignment, outs, faults, nil)
}

// --- Lane packing helpers ---------------------------------------------------

// Broadcast returns the lane word holding b in every lane.
func Broadcast(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// LaneMask returns the mask selecting the first n lanes (n in [0, 64]) — the
// ragged-final-block mask when fewer than 64 vectors remain.
func LaneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// laneCounterLow holds bit j of the integers 0..63 across lanes: lane k of
// laneCounterLow[j] is (k >> j) & 1.
var laneCounterLow = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // bit 0 of 0,1,2,...
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// LaneCounter returns the lane word holding bit `bit` of the 64 consecutive
// integers base, base+1, ..., base+63: lane k is (base+k) >> bit & 1.
// Bits 0-5 are rotations of fixed period patterns and bits >= 6 flip at most
// once inside the block, so exhaustive operand sweeps pack (and check) whole
// blocks in O(width) instead of O(width*64).
func LaneCounter(base uint64, bit int) uint64 {
	if bit < 6 {
		// Bit `bit` of v depends only on v mod 64 (period 2^(bit+1) divides
		// 64), so the block's pattern is the aligned pattern rotated by the
		// base offset.
		return bits.RotateLeft64(laneCounterLow[bit], -int(base&63))
	}
	// For bit >= 6 the block [base, base+63] crosses a multiple of 2^bit at
	// most once; lanes at and past the crossing see the bit flipped.
	w := Broadcast(base>>uint(bit)&1 != 0)
	// -base & mask is the distance to the next multiple of 2^bit, except
	// that 0 means base itself is one — the next crossing is 2^bit (>= 64)
	// away, outside the block.
	if k := -base & (1<<uint(bit) - 1); k != 0 && k < 64 {
		w ^= ^uint64(0) << uint(k)
	}
	return w
}

// LaneWord reassembles lane `lane`'s value from packed words: bit j of the
// result is lane `lane` of ws[j]. It is the inverse of packing a
// little-endian value across the words' lanes.
func LaneWord(ws []uint64, lane int) uint64 {
	var v uint64
	for j, w := range ws {
		v |= w >> uint(lane) & 1 << uint(j)
	}
	return v
}

// Transpose64 transposes the 64x64 bit matrix in place: afterwards bit j of
// a[i] is what bit i of a[j] was. Packing a block of 64 operand words into
// per-bit lane words (and unpacking 64 output words back out) is exactly
// this transpose, done in O(64 log 64) word operations instead of 64x64
// single-bit moves (Hacker's Delight §7-3, little-endian orientation).
func Transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k|j]) & m
			a[k] ^= t << uint(j)
			a[k|j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}

// PackLanes transposes up to 64 little-endian operand values into n per-bit
// lane words written to dst[0:n]: bit k of dst[j] is bit j of vals[k].
// Missing lanes (len(vals) < 64) pack as zero.
func PackLanes(dst []uint64, vals []uint64, n int) {
	var m [64]uint64
	copy(m[:], vals)
	Transpose64(&m)
	copy(dst[:n], m[:n])
}
