package fault

import (
	"reflect"
	"testing"

	"repro/internal/gates"
)

// sweepScalar is the reference gate sweep: one fault site at a time through
// the scalar EvalFault walk, stopping at the first vector that exposes it.
func sweepScalar(sw gateSweep) ([]bool, error) {
	detected := make([]bool, len(sw.sites))
	for i, s := range sw.sites {
		for vi, vec := range sw.vectors {
			out, err := sw.gc.c.EvalFault(vec, sw.gc.outs, []gates.Fault{{Net: s.Net, Model: s.Model}})
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(out, sw.golden[vi]) {
				detected[i] = true
				break
			}
		}
	}
	return detected, nil
}

// TestGateSweepEngineParity pins the packed 64-sites-per-pass gate sweep,
// with its worklist repacking after every vector, to the scalar reference
// sweep: every site of every circuit gets the same verdict at both tiers.
func TestGateSweepEngineParity(t *testing.T) {
	for _, full := range []bool{false, true} {
		if full && testing.Short() {
			continue
		}
		_, sweeps, err := gateSweeps(Options{Seed: 7, Full: full})
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range sweeps {
			packed, err := sweepPacked(sw)
			if err != nil {
				t.Fatalf("full=%v %s packed: %v", full, sw.gc.name, err)
			}
			scalar, err := sweepScalar(sw)
			if err != nil {
				t.Fatalf("full=%v %s scalar: %v", full, sw.gc.name, err)
			}
			for i := range packed {
				if packed[i] != scalar[i] {
					t.Errorf("full=%v %s site %s:%s: packed detected=%v, scalar %v", full, sw.gc.name,
						sw.gc.c.NetName(sw.sites[i].Net), sw.sites[i].Model, packed[i], scalar[i])
				}
			}
		}
	}
}
