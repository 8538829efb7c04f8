package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/gates"
)

// The gate-level campaign: classic test-generation coverage measurement.
// For every net of each adder/converter netlist and each fault model, the
// faulted circuit is evaluated against the fault-free one over a
// deterministic vector set; a fault is detected if any vector exposes a
// differing observable output. Undetected sites are reported by structural
// net name so regressions are attributable.

// GateReport is one circuit's coverage summary.
type GateReport struct {
	Circuit string
	Width   int
	// Sites is nets × models tried; Detected how many some vector exposed.
	Sites, Detected int
	// Vectors is the test-vector count the sweep used.
	Vectors int
	// Undetected lists the surviving sites as "net:model", in site order.
	Undetected []string
}

// Coverage is Detected/Sites.
func (r GateReport) Coverage() float64 {
	if r.Sites == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Sites)
}

// gateCircuit adapts one netlist builder to the sweep: its observable
// outputs and a generator of valid input assignments.
type gateCircuit struct {
	name string
	c    *gates.Circuit
	outs []gates.Node
	gen  func(rnd *rand.Rand) []bool
}

// rbWordPair fills a (plus, minus) input pair with a valid signed-digit
// vector: each digit independently 0, +1, or -1, never both bits set.
// Faults are measured under encodings the datapath can actually present.
func rbWordPair(assign []bool, pOff, mOff, n int, rnd *rand.Rand) {
	for i := 0; i < n; i++ {
		switch rnd.Intn(3) {
		case 1:
			assign[pOff+i] = true
		case 2:
			assign[mOff+i] = true
		}
	}
}

func buildCircuits(width int) []gateCircuit {
	ks := gates.KoggeStoneAdder(width)
	rba := gates.RBAdder(width)
	conv := gates.RBToTCConverter(width)
	return []gateCircuit{
		{
			name: "kogge-stone",
			c:    ks.C,
			outs: append(append([]gates.Node(nil), ks.Sum...), ks.Cout),
			gen: func(rnd *rand.Rand) []bool {
				in := make([]bool, ks.C.NumInputs())
				for i := range in {
					in[i] = rnd.Intn(2) == 1
				}
				return in
			},
		},
		{
			name: "rb-adder",
			c:    rba.C,
			outs: append(append(append(append([]gates.Node(nil),
				rba.SumPlus...), rba.SumMinus...), rba.CoutPlus), rba.CoutMinus),
			gen: func(rnd *rand.Rand) []bool {
				// Input order: a+ word, a- word, b+ word, b- word.
				in := make([]bool, rba.C.NumInputs())
				rbWordPair(in, 0, width, width, rnd)
				rbWordPair(in, 2*width, 3*width, width, rnd)
				return in
			},
		},
		{
			name: "converter",
			c:    conv.C,
			outs: append([]gates.Node(nil), conv.Out...),
			gen: func(rnd *rand.Rand) []bool {
				in := make([]bool, conv.C.NumInputs())
				rbWordPair(in, 0, width, width, rnd)
				return in
			},
		},
	}
}

// gateSweep is one circuit's sweep: its test vectors (boundary, then seeded
// random), their fault-free outputs, and its fault sites in deterministic
// order.
type gateSweep struct {
	gc              gateCircuit
	vectors, golden [][]bool
	sites           []gates.Fault
}

// gateSweeps builds the campaign's circuits at the tier's width and their
// sweeps. The fault-free references come from the scalar Eval walk.
func gateSweeps(opts Options) (width int, sweeps []gateSweep, err error) {
	width, nvec := 8, 24
	if opts.Full {
		width, nvec = 16, 64
	}
	for ci, gc := range buildCircuits(width) {
		rnd := opts.rng(100 + int64(ci))
		vectors := make([][]bool, 0, nvec+2)
		// Boundary vectors first (all-zero, all-one), then seeded random.
		all0 := make([]bool, gc.c.NumInputs())
		all1 := make([]bool, gc.c.NumInputs())
		for i := range all1 {
			all1[i] = true
		}
		vectors = append(vectors, all0, all1)
		for v := 0; v < nvec; v++ {
			vectors = append(vectors, gc.gen(rnd))
		}
		golden := make([][]bool, len(vectors))
		for vi, vec := range vectors {
			out, err := gc.c.Eval(vec, gc.outs)
			if err != nil {
				return 0, nil, fmt.Errorf("fault: %s golden eval: %w", gc.name, err)
			}
			golden[vi] = out
		}
		// Fault sites in deterministic order: nets (creation order) × models.
		sites := make([]gates.Fault, 0, len(gc.c.Nets())*int(gates.NumFaultModels))
		for _, net := range gc.c.Nets() {
			for m := gates.FaultModel(0); m < gates.NumFaultModels; m++ {
				sites = append(sites, gates.Fault{Net: net, Model: m})
			}
		}
		sweeps = append(sweeps, gateSweep{gc, vectors, golden, sites})
	}
	return width, sweeps, nil
}

// runGates sweeps sites × models × vectors for each circuit on the packed
// engine, 64 fault sites per evaluation: each site's fault is confined to
// its own lane of the bit-parallel engine and every lane is fed the same
// vector, so a whole block's detection verdicts fall out of one
// topological walk per vector.
func runGates(opts Options) ([]GateReport, error) {
	width, sweeps, err := gateSweeps(opts)
	if err != nil {
		return nil, err
	}
	var reports []GateReport
	for _, sw := range sweeps {
		rep := GateReport{Circuit: sw.gc.name, Width: width, Vectors: len(sw.vectors), Sites: len(sw.sites)}
		detected, err := sweepPacked(sw)
		if err != nil {
			return nil, err
		}
		for i, s := range sw.sites {
			if detected[i] {
				rep.Detected++
			} else {
				rep.Undetected = append(rep.Undetected,
					fmt.Sprintf("%s:%s", sw.gc.c.NetName(s.Net), s.Model))
			}
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// sweepPacked resolves 64 fault sites per pass: site i of a block gets lane
// i, the input vector broadcasts across all lanes, and a site is detected
// when any output word's lane differs from the golden broadcast. Vectors are
// the outer loop: after each one the still-unexposed sites are repacked into
// dense blocks, so the walk count tracks the (fast-shrinking) undetected
// population instead of paying every block's worst lane. A site's verdict is
// unchanged — it is detected iff some vector exposes it — and
// TestGateSweepEngineParity pins each verdict to a one-site-at-a-time
// scalar EvalFault sweep. It returns each site's verdict, in site order.
func sweepPacked(sw gateSweep) ([]bool, error) {
	gc, vectors, golden, sites := sw.gc, sw.vectors, sw.golden, sw.sites
	detected := make([]bool, len(sites))
	ev := gc.c.PackedEvaluator()
	in := make([]uint64, gc.c.NumInputs())
	goldenW := make([]uint64, len(gc.outs))
	// pending holds indices into sites, in site (net-major) order — so each
	// repacked block's faults arrive already net-sorted.
	pending := make([]int, len(sites))
	for i := range pending {
		pending[i] = i
	}
	faults := make([]gates.PackedFault, 0, 64)
	got := make([]uint64, 0, len(gc.outs))
	for vi, vec := range vectors {
		if len(pending) == 0 {
			break
		}
		for j, b := range vec {
			in[j] = gates.Broadcast(b)
		}
		for oi, b := range golden[vi] {
			goldenW[oi] = gates.Broadcast(b)
		}
		next := pending[:0]
		for bi := 0; bi < len(pending); bi += 64 {
			block := pending[bi:min(bi+64, len(pending))]
			faults = faults[:0]
			for k, si := range block {
				faults = append(faults, gates.PackedFault{
					Net: sites[si].Net, Model: sites[si].Model, Lanes: 1 << uint(k),
				})
			}
			var err error
			got, err = ev.EvalFault(in, gc.outs, faults, got[:0])
			if err != nil {
				return nil, fmt.Errorf("fault: %s faulted eval: %w", gc.name, err)
			}
			var exposed uint64
			for oi := range gc.outs {
				exposed |= got[oi] ^ goldenW[oi]
			}
			for k, si := range block {
				if exposed>>uint(k)&1 != 0 {
					detected[si] = true
				} else {
					next = append(next, si)
				}
			}
		}
		pending = next
	}
	return detected, nil
}
